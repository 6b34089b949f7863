// Package nativedb implements the native XML store of the reproduction —
// the MonetDB/XQuery stand-in of the evaluation. Documents are kept as
// trees; accessibility annotations live directly on the nodes and serialize
// as the sign attribute (Section 5.2, "Native XML"). The store exposes a
// mini-XQuery surface sufficient for the paper's annotation workload:
//
//	for $n in doc("xmlgen")((R1 union R2 union R6) except (R3 union R5))
//	return xmlac:annotate($n, "+")
//
// plus plain node-set queries doc("name")(expr) for evaluation and
// xmlac:clear() to drop all annotations.
package nativedb

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"

	"xmlac/internal/xmltree"
	"xmlac/internal/xpath"
)

// Store is a named collection of XML documents.
type Store struct {
	mu   sync.RWMutex
	docs map[string]*xmltree.Document

	// m is the metrics attachment (see observe.go); nil when disabled.
	m *storeMetrics
}

// OpenStore creates an empty store.
func OpenStore() *Store {
	return &Store{docs: map[string]*xmltree.Document{}}
}

// Load registers a document under a name, replacing any previous document
// with that name. The store takes ownership of the tree.
func (s *Store) Load(name string, doc *xmltree.Document) error {
	if doc == nil {
		return fmt.Errorf("nativedb: nil document")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.docs[name] = doc
	return nil
}

// LoadXML parses XML text and registers it — the native loading path of the
// evaluation (Figure 9's "loading time ... from the XML file to the XQuery
// database").
func (s *Store) LoadXML(name string, r io.Reader) error {
	doc, err := xmltree.Parse(r)
	if err != nil {
		return err
	}
	return s.Load(name, doc)
}

// Doc returns the named document, or nil.
func (s *Store) Doc(name string) *xmltree.Document {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.docs[name]
}

// Names lists the stored document names, sorted.
func (s *Store) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.docs))
	for n := range s.docs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Remove drops a document.
func (s *Store) Remove(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.docs, name)
}

// SetOp combines node sets.
type SetOp uint8

const (
	// OpUnion is the XQuery union operator.
	OpUnion SetOp = iota
	// OpExcept is the XQuery except operator.
	OpExcept
	// OpIntersect is the XQuery intersect operator.
	OpIntersect
)

// String names the operator in query syntax.
func (o SetOp) String() string {
	switch o {
	case OpUnion:
		return "union"
	case OpExcept:
		return "except"
	default:
		return "intersect"
	}
}

// SetExpr is a node-set expression: an XPath leaf or a set operation over
// two subexpressions.
type SetExpr struct {
	Path        *xpath.Path
	Op          SetOp
	Left, Right *SetExpr
}

// String renders the expression in query syntax.
func (e *SetExpr) String() string {
	if e.Path != nil {
		return e.Path.String()
	}
	return "(" + e.Left.String() + " " + e.Op.String() + " " + e.Right.String() + ")"
}

// PathLeaf wraps an XPath expression as a set expression.
func PathLeaf(p *xpath.Path) *SetExpr { return &SetExpr{Path: p} }

// Combine folds expressions with one operator; nil when the list is empty.
func Combine(op SetOp, exprs ...*SetExpr) *SetExpr {
	var acc *SetExpr
	for _, e := range exprs {
		if e == nil {
			continue
		}
		if acc == nil {
			acc = e
			continue
		}
		acc = &SetExpr{Op: op, Left: acc, Right: e}
	}
	return acc
}

// EvalSet evaluates a set expression on a document, returning the node set
// in document order.
func EvalSet(e *SetExpr, doc *xmltree.Document) ([]*xmltree.Node, error) {
	return EvalSetStats(e, doc, nil)
}

// Runner fans out n independent tasks fn(0) … fn(n-1) and returns the first
// error; nil means sequential in-caller execution. (*pool.Pool).ForEach
// satisfies the shape.
type Runner func(n int, fn func(i int) error) error

// EvalSetWith is EvalSetStats with the leaf XPath queries of the set
// expression fanned out through run. XPath evaluation never writes to the
// tree, so the leaves are safe to evaluate concurrently; the set-operator
// fold then runs sequentially over the collected leaf sets, making the
// result identical to the sequential evaluation.
func EvalSetWith(e *SetExpr, doc *xmltree.Document, st *xpath.EvalStats, run Runner) ([]*xmltree.Node, error) {
	set, err := evalSetWith(e, doc, st, run)
	if err != nil {
		return nil, err
	}
	out := make([]*xmltree.Node, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sortNodes(doc, out)
	return out, nil
}

func evalSetWith(e *SetExpr, doc *xmltree.Document, st *xpath.EvalStats, run Runner) (map[*xmltree.Node]bool, error) {
	if run == nil {
		return evalSetStats(e, doc, st)
	}
	var leaves []*SetExpr
	var collect func(e *SetExpr)
	collect = func(e *SetExpr) {
		if e == nil {
			return
		}
		if e.Path != nil {
			leaves = append(leaves, e)
			return
		}
		collect(e.Left)
		collect(e.Right)
	}
	collect(e)
	if len(leaves) <= 1 {
		return evalSetStats(e, doc, st)
	}
	sets := make([]map[*xmltree.Node]bool, len(leaves))
	stats := make([]xpath.EvalStats, len(leaves)) // per-leaf, merged after the barrier
	if err := run(len(leaves), func(i int) error {
		var sp *xpath.EvalStats
		if st != nil {
			sp = &stats[i]
		}
		set, err := evalSetStats(leaves[i], doc, sp)
		sets[i] = set
		return err
	}); err != nil {
		return nil, err
	}
	if st != nil {
		for i := range stats {
			st.Visited += stats[i].Visited
		}
	}
	byLeaf := make(map[*SetExpr]map[*xmltree.Node]bool, len(leaves))
	for i, l := range leaves {
		byLeaf[l] = sets[i]
	}
	return foldSets(e, byLeaf), nil
}

// foldSets applies the set operators over precomputed leaf sets. The leaf
// maps are freshly built per evaluation and each leaf occurs once in the
// tree, so in-place union/except on them is safe.
func foldSets(e *SetExpr, byLeaf map[*SetExpr]map[*xmltree.Node]bool) map[*xmltree.Node]bool {
	if e == nil {
		return map[*xmltree.Node]bool{}
	}
	if e.Path != nil {
		return byLeaf[e]
	}
	l := foldSets(e.Left, byLeaf)
	r := foldSets(e.Right, byLeaf)
	switch e.Op {
	case OpUnion:
		for n := range r {
			l[n] = true
		}
		return l
	case OpExcept:
		for n := range r {
			delete(l, n)
		}
		return l
	default: // OpIntersect
		out := map[*xmltree.Node]bool{}
		for n := range l {
			if r[n] {
				out[n] = true
			}
		}
		return out
	}
}

// sortNodes orders a slice of doc's nodes by structural-index rank: document
// order, also after inserts, whose nodes carry the highest ids.
func sortNodes(doc *xmltree.Document, out []*xmltree.Node) {
	doc.Index() // the ranks below are current
	slices.SortFunc(out, func(a, b *xmltree.Node) int { return cmp.Compare(a.Rank(), b.Rank()) })
}

func evalSetStats(e *SetExpr, doc *xmltree.Document, st *xpath.EvalStats) (map[*xmltree.Node]bool, error) {
	if e == nil {
		return map[*xmltree.Node]bool{}, nil
	}
	if e.Path != nil {
		nodes, err := xpath.EvalWithStats(e.Path, doc, st)
		if err != nil {
			return nil, err
		}
		set := make(map[*xmltree.Node]bool, len(nodes))
		for _, n := range nodes {
			set[n] = true
		}
		return set, nil
	}
	l, err := evalSetStats(e.Left, doc, st)
	if err != nil {
		return nil, err
	}
	r, err := evalSetStats(e.Right, doc, st)
	if err != nil {
		return nil, err
	}
	switch e.Op {
	case OpUnion:
		for n := range r {
			l[n] = true
		}
		return l, nil
	case OpExcept:
		for n := range r {
			delete(l, n)
		}
		return l, nil
	default: // OpIntersect
		out := map[*xmltree.Node]bool{}
		for n := range l {
			if r[n] {
				out[n] = true
			}
		}
		return out, nil
	}
}

// Annotate implements the paper's xmlac:annotate($n, $val) update function:
// it inserts or replaces the node's sign annotation.
func Annotate(n *xmltree.Node, sign xmltree.Sign) {
	n.Sign = sign
}
