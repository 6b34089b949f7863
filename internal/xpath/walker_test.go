package xpath

import (
	"fmt"
	"sort"

	"xmlac/internal/xmltree"
)

// walkEval is the reference evaluator the index-based Eval is checked
// against: it walks the tree for every step and collects node sets in
// maps, with no structural index. Results come back in document order
// (pre-order position, not id order).
func walkEval(p *Path, doc *xmltree.Document) ([]*xmltree.Node, error) {
	if !p.Absolute {
		return nil, fmt.Errorf("xpath: Eval requires an absolute path, got %q", p.String())
	}
	if len(p.Steps) == 0 {
		return nil, fmt.Errorf("xpath: cannot evaluate the empty absolute path")
	}
	cur := map[*xmltree.Node]bool{}
	first := p.Steps[0]
	switch first.Axis {
	case Child:
		if walkTest(doc.Root(), first.Test) && walkPreds(doc.Root(), first.Preds) {
			cur[doc.Root()] = true
		}
	case Descendant:
		walkSelfOrDescendants(doc.Root(), first.Test, first.Preds, cur)
	default:
		return nil, fmt.Errorf("xpath: unexpected axis in absolute path")
	}
	return walkOrder(doc.Root(), walkSteps(p.Steps[1:], cur)), nil
}

// walkFrom evaluates a relative qualifier path from a context node, in no
// particular order; the bare "." path yields the context node itself. An
// absolute path reaches nothing.
func walkFrom(p *Path, ctx *xmltree.Node) map[*xmltree.Node]bool {
	if p.Absolute {
		return nil
	}
	return walkSteps(p.Steps, map[*xmltree.Node]bool{ctx: true})
}

func walkSteps(steps []*Step, cur map[*xmltree.Node]bool) map[*xmltree.Node]bool {
	for _, s := range steps {
		next := map[*xmltree.Node]bool{}
		for n := range cur {
			switch s.Axis {
			case Child:
				for _, c := range n.ChildElements() {
					if walkTest(c, s.Test) && walkPreds(c, s.Preds) {
						next[c] = true
					}
				}
			case Descendant:
				for _, c := range n.ChildElements() {
					walkSelfOrDescendants(c, s.Test, s.Preds, next)
				}
			case Self:
				if walkPreds(n, s.Preds) {
					next[n] = true
				}
			}
		}
		cur = next
		if len(cur) == 0 {
			break
		}
	}
	return cur
}

func walkSelfOrDescendants(n *xmltree.Node, test string, preds []*Pred, out map[*xmltree.Node]bool) {
	if n.Kind != xmltree.Element {
		return
	}
	if walkTest(n, test) && walkPreds(n, preds) {
		out[n] = true
	}
	for _, c := range n.Children() {
		walkSelfOrDescendants(c, test, preds, out)
	}
}

func walkTest(n *xmltree.Node, test string) bool {
	return n.Kind == xmltree.Element && (test == Wildcard || n.Label == test)
}

func walkPreds(n *xmltree.Node, preds []*Pred) bool {
	for _, q := range preds {
		if !walkPred(n, q) {
			return false
		}
	}
	return true
}

func walkPred(n *xmltree.Node, q *Pred) bool {
	switch q.Kind {
	case And:
		return walkPred(n, q.Left) && walkPred(n, q.Right)
	case Or:
		return walkPred(n, q.Left) || walkPred(n, q.Right)
	case Exists:
		return len(walkFrom(q.Path, n)) > 0
	case Cmp:
		for m := range walkFrom(q.Path, n) {
			if compareValue(m.TextContent(), q.Op, q.Value) {
				return true
			}
		}
	}
	return false
}

// walkOrder lists a node set in the pre-order of the tree under top.
func walkOrder(top *xmltree.Node, set map[*xmltree.Node]bool) []*xmltree.Node {
	pos := map[*xmltree.Node]int{}
	top.Walk(func(n *xmltree.Node) bool {
		pos[n] = len(pos)
		return true
	})
	out := make([]*xmltree.Node, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return pos[out[i]] < pos[out[j]] })
	return out
}
