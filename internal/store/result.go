package store

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"xmlac/internal/obs"
	"xmlac/internal/xmltree"
)

// ErrAccessDenied is returned when a request touches an inaccessible
// node. The error text is frozen API: it predates the store seam (the
// requester lived in package core) and the golden reference-equivalence
// tests compare denial messages verbatim.
var ErrAccessDenied = errors.New("core: access denied")

// DeniedError is the concrete denial returned by the request paths: it
// wraps ErrAccessDenied (errors.Is keeps working) and carries the first
// inaccessible node, so the audit trail can attribute the denial to the
// deciding rule without parsing error text.
type DeniedError struct {
	// ID is the universal id of the inaccessible node.
	ID int64
	// Label is the node's element label; empty on relational denials,
	// where the store only knows the id (matching the paper's
	// universal-identifier iteration).
	Label string
	// Query is set instead of ID/Label when the denial was decided
	// statically — the enforceability checker refused the query from its
	// shape alone, so no concrete node was ever identified (and no store
	// was touched).
	Query string
}

// Error reproduces the exact denial texts the request paths have always
// emitted — the golden reference-equivalence tests compare them verbatim.
// Static denials carry the refused query instead of a node.
func (e *DeniedError) Error() string {
	if e.Query != "" {
		return fmt.Sprintf("%v: query %s is statically denied by the policy", ErrAccessDenied, e.Query)
	}
	if e.Label != "" {
		return fmt.Sprintf("%v: node %d (%s) is not accessible", ErrAccessDenied, e.ID, e.Label)
	}
	return fmt.Sprintf("%v: node %d is not accessible", ErrAccessDenied, e.ID)
}

// Unwrap makes errors.Is(err, ErrAccessDenied) hold.
func (e *DeniedError) Unwrap() error { return ErrAccessDenied }

// RequestResult is a granted request's answer.
type RequestResult struct {
	// Nodes are the matched nodes (native store requests).
	Nodes []*xmltree.Node
	// IDs are the matched universal identifiers, ascending (relational
	// requests).
	IDs []int64
	// Checked is how many distinct nodes were access-checked. A
	// translated query may return the same universal id once per
	// qualifier witness; matches are deduplicated before checking on
	// every backend, so Checked always counts distinct matched nodes.
	Checked int
}

// Decision decides the matches of one request: every enforcement path
// (the engines' materialized signs, the CAM query cache, the rewriter's
// scope algebra) supplies one, and Check applies it.
type Decision struct {
	// Prepare, when set, sees the distinct matched ids of a
	// relational-shaped request, ascending, before any match is decided —
	// the relational engines batch their sign probes here.
	Prepare func(ids []int64) error
	// Accessible decides one match. n is the matched tree node when the
	// matches came from the tree, nil when they came from translated SQL.
	Accessible func(id int64, n *xmltree.Node) bool
}

// Check is the paper's all-or-nothing decision (Fig. 10) over the raw
// match set of an unchecked query: if every match is accessible the
// matches are returned, otherwise the first inaccessible one denies the
// whole request. The result has the shape of the backend family. The tree
// family keeps Nodes in document order and a denial names the node's
// label; the relational family answers deduplicated ascending IDs (tree
// matches are converted) and a denial names the id only; Checked counts
// the matches either way. raw is consumed. The decision runs under a
// check-access span carrying its outcome and, unless nil, the mode that
// names the deciding path. The mode is a string constant passed as any,
// so recording it allocates nothing.
func Check(parent *obs.Span, mode any, raw *RequestResult, relational bool, d Decision) (*RequestResult, error) {
	sp := obs.Start(parent, "check-access")
	defer sp.Finish()
	if mode != nil {
		sp.SetAttr("mode", mode)
	}
	res, nodes := raw, raw.Nodes
	if relational {
		res, nodes = relationalShape(raw)
		if d.Prepare != nil {
			if err := d.Prepare(res.IDs); err != nil {
				return nil, err
			}
		}
	} else {
		res.Checked = len(nodes)
	}
	for i := range res.Checked {
		var n *xmltree.Node
		var id int64
		if nodes != nil {
			n, id = nodes[i], nodes[i].ID
		} else {
			id = res.IDs[i]
		}
		if !d.Accessible(id, n) {
			sp.SetAttr("outcome", "denied")
			denied := &DeniedError{ID: id}
			if !relational {
				denied.Label = n.Label
			}
			return nil, denied
		}
	}
	sp.SetAttr("outcome", "granted")
	return res, nil
}

// relationalShape returns the relational-family result of raw matches:
// IDs deduplicated and ascending, Checked their count. Translated SQL
// matches arrive in that shape and are returned as they are, with nil
// nodes. Tree matches (xpath.Eval's output) are distinct and in document
// order, which is id order until an insert gives later nodes higher ids
// than their document successors; they are sorted by id in place, each
// beside its node.
func relationalShape(raw *RequestResult) (*RequestResult, []*xmltree.Node) {
	if raw.Nodes == nil && raw.IDs != nil {
		raw.Checked = len(raw.IDs)
		return raw, nil
	}
	nodes := raw.Nodes
	slices.SortFunc(nodes, func(a, b *xmltree.Node) int { return cmp.Compare(a.ID, b.ID) })
	ids := make([]int64, len(nodes))
	for i, n := range nodes {
		ids[i] = n.ID
	}
	return &RequestResult{IDs: ids, Checked: len(ids)}, nodes
}
