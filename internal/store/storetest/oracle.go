// Package storetest is the Table 2 oracle for request tests. It computes
// the answer a request must get by brute force, from policy.Semantics and
// xpath.Eval, never through an engine's signs, the CAM or the rewriter's
// scope sets, so an enforcement path compared against it cannot agree
// with it by sharing a defect in the access decision.
package storetest

import (
	"fmt"
	"slices"

	"xmlac/internal/pattern"
	"xmlac/internal/policy"
	"xmlac/internal/store"
	"xmlac/internal/xmltree"
	"xmlac/internal/xpath"
)

// Answer is everything a caller can observe from one request.
type Answer struct {
	Granted bool
	// Err is the exact denial text; empty on a grant.
	Err string
	// IDs are the returned matches: in document order for the tree
	// family, deduplicated and ascending for the relational family.
	IDs     []int64
	Checked int
	// Shape names a result in the wrong family's shape ("Nodes" from a
	// relational engine, "IDs" from the tree store); empty when right.
	Shape string
}

// Equal reports whether two answers are the same observation.
func (a Answer) Equal(b Answer) bool {
	return a.Granted == b.Granted && a.Err == b.Err && slices.Equal(a.IDs, b.IDs) &&
		a.Checked == b.Checked && a.Shape == b.Shape
}

// Observe flattens a request's outcome into an Answer; relational selects
// the family whose result shape is expected.
func Observe(res *store.RequestResult, err error, relational bool) Answer {
	if err != nil {
		return Answer{Err: err.Error()}
	}
	a := Answer{Granted: true, IDs: res.IDs, Checked: res.Checked}
	switch {
	case relational && res.Nodes != nil:
		a.Shape = "Nodes"
	case !relational && res.IDs != nil:
		a.Shape = "IDs"
	case !relational:
		a.IDs = make([]int64, len(res.Nodes))
		for i, n := range res.Nodes {
			a.IDs[i] = n.ID
		}
	}
	return a
}

// Expect is the oracle's answer for q over doc, where accessible is the
// policy's Table 2 semantics on doc. The first inaccessible match denies
// the whole request: in document order with its label for the tree
// family, in ascending id order by id alone for the relational family.
func Expect(doc *xmltree.Document, accessible map[int64]bool, q *xpath.Path, relational bool) (Answer, error) {
	nodes, err := xpath.Eval(q, doc)
	if err != nil {
		return Answer{}, err
	}
	ids := make([]int64, len(nodes))
	for i, n := range nodes {
		ids[i] = n.ID
	}
	if relational {
		slices.Sort(ids)
		ids = slices.Compact(ids)
		for _, id := range ids {
			if !accessible[id] {
				return Answer{Err: fmt.Sprintf("core: access denied: node %d is not accessible", id)}, nil
			}
		}
	} else {
		for _, n := range nodes {
			if !accessible[n.ID] {
				return Answer{Err: fmt.Sprintf("core: access denied: node %d (%s) is not accessible", n.ID, n.Label)}, nil
			}
		}
	}
	return Answer{Granted: true, IDs: ids, Checked: len(ids)}, nil
}

// Requester is the part of an access-control system the oracle drives.
type Requester interface {
	Request(q *xpath.Path) (*store.RequestResult, error)
	ClassifyQuery(q *xpath.Path) pattern.StaticVerdict
	Document() *xmltree.Document
	Engine() store.Engine
}

// Mismatches runs every query through sys and returns one line for each
// answer that differs from the oracle's; pol is the read policy as
// configured (before any redundancy elimination). A query the system
// refuses statically expects the static refusal text, provided the
// oracle denies it too.
func Mismatches(sys Requester, pol *policy.Policy, queries []*xpath.Path) ([]string, error) {
	doc := sys.Document()
	accessible, err := pol.Semantics(doc)
	if err != nil {
		return nil, err
	}
	relational := sys.Engine().Relational()
	var out []string
	for _, q := range queries {
		want, err := Expect(doc, accessible, q, relational)
		if err != nil {
			return nil, err
		}
		if !want.Granted && sys.ClassifyQuery(q) == pattern.StaticDeny {
			want.Err = fmt.Sprintf("core: access denied: query %s is statically denied by the policy", q)
		}
		res, err := sys.Request(q)
		if got := Observe(res, err, relational); !got.Equal(want) {
			out = append(out, fmt.Sprintf("%s: got %+v, want %+v", q, got, want))
		}
	}
	return out, nil
}
