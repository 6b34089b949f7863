package xpath

import (
	"fmt"
	"slices"
	"strconv"
	"sync"

	"xmlac/internal/xmltree"
)

// Eval evaluates an absolute path on a document and returns [[p]](T): the
// matched element nodes, deduplicated, in document order. Following standard
// XPath semantics the evaluation context of an absolute path is the virtual
// document node above the root element, so //a matches the root element
// itself when it is labeled a.
//
// Evaluation runs on the document's structural index (xmltree.Index): node
// sets are ascending rank slices, a // step is a range scan over one label's
// postings and a / step hops from child to child over subtree end ranks.
func Eval(p *Path, doc *xmltree.Document) ([]*xmltree.Node, error) {
	return EvalWithStats(p, doc, nil)
}

// EvalStats counts the work one evaluation performed: Visited is how many
// candidate elements the steps of the main path examined — children for a
// / step, postings inside the context's range for a // step (every rank for
// //*), the context itself for a self step. Qualifier sub-evaluations are
// not counted. A nil *EvalStats is accepted everywhere and counts nothing.
type EvalStats struct {
	Visited int
}

// EvalWithStats is Eval with an optional work counter.
func EvalWithStats(p *Path, doc *xmltree.Document, st *EvalStats) ([]*xmltree.Node, error) {
	if !p.Absolute {
		return nil, fmt.Errorf("xpath: Eval requires an absolute path, got %q", p.String())
	}
	if len(p.Steps) == 0 {
		return nil, fmt.Errorf("xpath: cannot evaluate the empty absolute path")
	}
	e := evaluator{ix: doc.Index(), st: st}
	sc := rankPool.Get().(*rankBuffers)
	cur, spare := sc.a[:0], sc.b[:0]
	first := p.Steps[0]
	// The virtual document node's only child is the root element (rank 0);
	// its descendants are the root element and everything below it.
	switch first.Axis {
	case Child:
		e.visit()
		if matchTest(e.ix.Node(0), first.Test) && e.holdPreds(0, first.Preds) {
			cur = append(cur, 0)
		}
	case Descendant:
		cur = e.descendants(cur, -1, e.ix.Len()-1, first)
	default:
		rankPool.Put(sc)
		return nil, fmt.Errorf("xpath: unexpected axis in absolute path")
	}
	for _, s := range p.Steps[1:] {
		if len(cur) == 0 {
			break
		}
		cur, spare = e.step(cur, s, spare[:0]), cur
	}
	out := make([]*xmltree.Node, len(cur))
	for i, r := range cur {
		out[i] = e.ix.Node(r)
	}
	sc.a, sc.b = recycle(cur), recycle(spare)
	rankPool.Put(sc)
	return out, nil
}

// rankBuffers holds the two rank buffers an evaluation alternates between,
// recycled across evaluations so warm reads allocate little besides their
// result.
type rankBuffers struct{ a, b []int32 }

var rankPool = sync.Pool{New: func() any { return new(rankBuffers) }}

// recycle keeps a buffer for the pool unless it grew past maxPooledRanks;
// the rare huge node set goes to the garbage collector instead, keeping the
// pool small.
func recycle(buf []int32) []int32 {
	if cap(buf) > maxPooledRanks {
		return nil
	}
	return buf[:0]
}

const maxPooledRanks = 1 << 13

// Matches reports whether node n is in the result of evaluating absolute
// path p on doc.
func Matches(p *Path, doc *xmltree.Document, n *xmltree.Node) (bool, error) {
	res, err := Eval(p, doc)
	if err != nil {
		return false, err
	}
	for _, m := range res {
		if m == n {
			return true, nil
		}
	}
	return false, nil
}

// evaluator evaluates one path over a structural index. Node sets are
// ascending slices of live ranks.
type evaluator struct {
	ix *xmltree.Index
	st *EvalStats
}

func (e *evaluator) visit() {
	if e.st != nil {
		e.st.Visited++
	}
}

// step applies one location step to an ascending context set, appending
// the result to out.
func (e *evaluator) step(cur []int32, s *Step, out []int32) []int32 {
	switch s.Axis {
	case Child:
		// Each element has one parent, so the children of distinct contexts
		// are distinct; they come out of order only when one context is
		// nested in another.
		sorted := true
		for _, c := range cur {
			for r, end := c+1, e.ix.Node(c).End(); r <= end; {
				m := e.ix.Node(r)
				if m == nil {
					r++
					continue
				}
				e.visit()
				if matchTest(m, s.Test) && e.holdPreds(r, s.Preds) {
					sorted = sorted && (len(out) == 0 || out[len(out)-1] < r)
					out = append(out, r)
				}
				r = m.End() + 1
			}
		}
		if !sorted {
			slices.Sort(out)
		}
	case Descendant:
		// A context nested in an earlier one adds no descendants: skipping
		// it keeps the scanned ranges disjoint and the output ascending.
		last := int32(-1)
		for _, c := range cur {
			if c <= last {
				continue
			}
			last = e.ix.Node(c).End()
			out = e.descendants(out, c, last, s)
		}
	case Self:
		for _, c := range cur {
			e.visit()
			if e.holdPreds(c, s.Preds) {
				out = append(out, c)
			}
		}
	}
	return out
}

// descendants appends the live ranks in (from, to] that pass s's node test
// and qualifiers, ascending.
func (e *evaluator) descendants(out []int32, from, to int32, s *Step) []int32 {
	if s.Test == Wildcard {
		for r := from + 1; r <= to; r++ {
			if e.ix.Node(r) == nil {
				continue
			}
			e.visit()
			if e.holdPreds(r, s.Preds) {
				out = append(out, r)
			}
		}
		return out
	}
	post := e.ix.Postings(s.Test)
	i, _ := slices.BinarySearch(post, from+1)
	j, _ := slices.BinarySearch(post, to+1)
	out = slices.Grow(out, j-i)
	for _, r := range post[i:j] {
		if e.ix.Node(r) == nil {
			continue
		}
		e.visit()
		if e.holdPreds(r, s.Preds) {
			out = append(out, r)
		}
	}
	return out
}

func matchTest(n *xmltree.Node, test string) bool {
	return test == Wildcard || n.Label == test
}

func (e *evaluator) holdPreds(r int32, preds []*Pred) bool {
	for _, q := range preds {
		if !e.holdPred(r, q) {
			return false
		}
	}
	return true
}

func (e *evaluator) holdPred(r int32, q *Pred) bool {
	switch q.Kind {
	case And:
		return e.holdPred(r, q.Left) && e.holdPred(r, q.Right)
	case Or:
		return e.holdPred(r, q.Left) || e.holdPred(r, q.Right)
	case Exists:
		return !q.Path.Absolute && e.reach(q.Path.Steps, r, nil)
	case Cmp:
		return !q.Path.Absolute && e.reach(q.Path.Steps, r, q)
	}
	return false
}

// reach reports whether the relative steps lead from rank r to a witness:
// any element, or with cmp set one whose string value satisfies the
// comparison. It searches depth first and stops at the first witness. No
// steps is the bare "." path: r itself is the only candidate.
func (e *evaluator) reach(steps []*Step, r int32, cmp *Pred) bool {
	if len(steps) == 0 {
		return cmp == nil || compareValue(e.ix.Node(r).TextContent(), cmp.Op, cmp.Value)
	}
	s, rest := steps[0], steps[1:]
	end := e.ix.Node(r).End()
	switch s.Axis {
	case Self:
		return e.holdPreds(r, s.Preds) && e.reach(rest, r, cmp)
	case Child:
		for c := r + 1; c <= end; {
			m := e.ix.Node(c)
			if m == nil {
				c++
				continue
			}
			if matchTest(m, s.Test) && e.holdPreds(c, s.Preds) && e.reach(rest, c, cmp) {
				return true
			}
			c = m.End() + 1
		}
	case Descendant:
		// When the next step is // too, whatever a candidate nested in a
		// failed one reaches, the failed one reached as well: skip past
		// the failed candidate's subtree.
		prune := len(rest) > 0 && rest[0].Axis == Descendant
		if s.Test == Wildcard {
			for c := r + 1; c <= end; c++ {
				m := e.ix.Node(c)
				if m == nil || !e.holdPreds(c, s.Preds) {
					continue
				}
				if e.reach(rest, c, cmp) {
					return true
				}
				if prune {
					c = m.End()
				}
			}
			return false
		}
		post := e.ix.Postings(s.Test)
		skip := int32(-1)
		i, _ := slices.BinarySearch(post, r+1)
		for ; i < len(post) && post[i] <= end; i++ {
			c := post[i]
			m := e.ix.Node(c)
			if m == nil || c <= skip || !e.holdPreds(c, s.Preds) {
				continue
			}
			if e.reach(rest, c, cmp) {
				return true
			}
			if prune {
				skip = m.End()
			}
		}
	}
	return false
}

// compareValue applies an XPath 1.0-style comparison between a node's string
// value and a literal. When the literal is numeric, the node value is parsed
// as a number (comparison is false if it does not parse). When the literal
// is a string, = and != compare strings; the relational operators coerce
// both sides to numbers, as XPath 1.0 does.
func compareValue(nodeVal string, op CmpOp, lit Literal) bool {
	if lit.IsNum {
		f, err := strconv.ParseFloat(nodeVal, 64)
		if err != nil {
			return false
		}
		return cmpFloat(f, op, lit.Num)
	}
	switch op {
	case Eq:
		return nodeVal == lit.Str
	case Ne:
		return nodeVal != lit.Str
	default:
		a, errA := strconv.ParseFloat(nodeVal, 64)
		b, errB := strconv.ParseFloat(lit.Str, 64)
		if errA != nil || errB != nil {
			return false
		}
		return cmpFloat(a, op, b)
	}
}

func cmpFloat(a float64, op CmpOp, b float64) bool {
	switch op {
	case Eq:
		return a == b
	case Ne:
		return a != b
	case Lt:
		return a < b
	case Le:
		return a <= b
	case Gt:
		return a > b
	case Ge:
		return a >= b
	}
	return false
}
