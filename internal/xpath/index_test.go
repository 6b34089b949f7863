package xpath

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"xmlac/internal/dtd"
	"xmlac/internal/hospital"
	"xmlac/internal/xmark"
	"xmlac/internal/xmltree"
)

// pathGen draws random paths over a schema's labels and a document's text
// values, covering child and descendant steps, *, ".", existence and value
// qualifiers, and and/or.
type pathGen struct {
	r      *rand.Rand
	labels []string
	values []string
}

func newPathGen(r *rand.Rand, schema *dtd.Schema, doc *xmltree.Document) *pathGen {
	g := &pathGen{r: r, labels: schema.Names()}
	doc.Walk(func(n *xmltree.Node) bool {
		if n.IsText() && len(g.values) < 200 && r.Intn(4) == 0 {
			g.values = append(g.values, n.Value)
		}
		return true
	})
	return g
}

func (g *pathGen) test() string {
	if g.r.Intn(6) == 0 {
		return Wildcard
	}
	return g.labels[g.r.Intn(len(g.labels))]
}

func (g *pathGen) axis() Axis {
	if g.r.Intn(2) == 0 {
		return Child
	}
	return Descendant
}

// path draws an absolute path of one to four steps.
func (g *pathGen) path() *Path {
	p := &Path{Absolute: true}
	for i, n := 0, 1+g.r.Intn(4); i < n; i++ {
		p.Steps = append(p.Steps, g.step(2))
	}
	return p
}

func (g *pathGen) step(depth int) *Step {
	s := &Step{Axis: g.axis(), Test: g.test()}
	for depth > 0 && g.r.Intn(3) == 0 {
		s.Preds = append(s.Preds, g.pred(depth-1))
	}
	return s
}

// relative draws a qualifier path: "." or one to three steps.
func (g *pathGen) relative(depth int) *Path {
	p := &Path{}
	if g.r.Intn(6) == 0 {
		return p
	}
	for i, n := 0, 1+g.r.Intn(3); i < n; i++ {
		p.Steps = append(p.Steps, g.step(depth))
	}
	return p
}

func (g *pathGen) pred(depth int) *Pred {
	switch g.r.Intn(6) {
	case 0:
		return &Pred{Kind: And, Left: g.pred(depth), Right: g.pred(depth)}
	case 1:
		return &Pred{Kind: Or, Left: g.pred(depth), Right: g.pred(depth)}
	case 2, 3:
		q := &Pred{Kind: Cmp, Path: g.relative(depth), Op: CmpOp(g.r.Intn(6))}
		if g.r.Intn(2) == 0 || len(g.values) == 0 {
			q.Value = Literal{IsNum: true, Num: float64(g.r.Intn(2000))}
		} else {
			q.Value = Literal{Str: g.values[g.r.Intn(len(g.values))]}
		}
		return q
	}
	return &Pred{Kind: Exists, Path: g.relative(depth)}
}

// sameAsWalker compares Eval with the walker oracle: the same nodes, in
// document order.
func sameAsWalker(p *Path, doc *xmltree.Document) error {
	got, err1 := Eval(p, doc)
	want, err2 := walkEval(p, doc)
	if (err1 == nil) != (err2 == nil) {
		return fmt.Errorf("%s: Eval error %v, walker error %v", p, err1, err2)
	}
	if len(got) != len(want) {
		return fmt.Errorf("%s: Eval matched %d nodes, walker %d", p, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s: match %d is node %d, walker has node %d", p, i, got[i].ID, want[i].ID)
		}
	}
	return nil
}

// copySubtree makes a detached template of n's subtree for InsertSubtree.
func copySubtree(n *xmltree.Node) *xmltree.Node {
	t := xmltree.NewSubtree(n.Label)
	var fill func(dst, src *xmltree.Node)
	fill = func(dst, src *xmltree.Node) {
		for _, c := range src.Children() {
			if c.IsText() {
				xmltree.AddTemplateText(dst, c.Value)
			} else {
				fill(xmltree.AddTemplateChild(dst, c.Label), c)
			}
		}
	}
	fill(t, n)
	return t
}

// update applies one random subtree insert or delete. Deletes favour the
// large subtrees near the root, so a sequence crosses the index's
// dead-rank threshold.
func update(r *rand.Rand, doc *xmltree.Document) (insert bool) {
	var elems, top []*xmltree.Node
	doc.Walk(func(n *xmltree.Node) bool {
		if n.IsElement() {
			elems = append(elems, n)
			if n.Depth() == 1 {
				top = append(top, n)
			}
		}
		return true
	})
	if r.Intn(5) < 2 || len(elems) < 2 {
		src := elems[r.Intn(len(elems))]
		parent := elems[r.Intn(len(elems))]
		if _, err := doc.InsertSubtree(parent, copySubtree(src)); err != nil {
			panic(err)
		}
		return true
	}
	victim := elems[1+r.Intn(len(elems)-1)]
	if len(top) > 0 && r.Intn(2) == 0 {
		victim = top[r.Intn(len(top))]
	}
	if err := doc.DeleteSubtree(victim); err != nil {
		panic(err)
	}
	return false
}

type fixture struct {
	name   string
	schema *dtd.Schema
	gen    func(seed uint64) *xmltree.Document
}

func fixtures() []fixture {
	return []fixture{
		{"xmark", xmark.Schema(), func(seed uint64) *xmltree.Document {
			return xmark.Generate(xmark.Options{Factor: 0.0005, Seed: seed})
		}},
		{"hospital", hospital.Schema(), func(seed uint64) *xmltree.Document {
			return hospital.Generate(hospital.GenOptions{Seed: seed, Departments: 3, PatientsPerDept: 8, StaffPerDept: 2})
		}},
	}
}

// TestEvalMatchesWalker: on seeded XMark and hospital documents, through
// random sequences of subtree inserts and deletes, index-based Eval answers
// every random path exactly as the tree-walking oracle does. Each sequence
// must both keep the index across some deletes and, at least once, cross
// the dead-rank threshold at which a delete drops it.
func TestEvalMatchesWalker(t *testing.T) {
	const seeds, updates, paths = 6, 12, 25
	for _, fx := range fixtures() {
		t.Run(fx.name, func(t *testing.T) {
			kept, compactions := 0, 0
			for seed := uint64(1); seed <= seeds; seed++ {
				r := rand.New(rand.NewSource(int64(seed)))
				doc := fx.gen(seed)
				g := newPathGen(r, fx.schema, doc)
				for u := 0; u <= updates; u++ {
					if u > 0 {
						ix := doc.Index()
						inserted := update(r, doc)
						switch {
						case inserted:
						case doc.Index() == ix:
							kept++
						default:
							compactions++
						}
					}
					for k := 0; k < paths; k++ {
						if err := sameAsWalker(g.path(), doc); err != nil {
							t.Fatalf("seed %d after %d updates: %v", seed, u, err)
						}
					}
				}
			}
			t.Logf("%d deletes kept the index, %d dropped it", kept, compactions)
			if kept == 0 || compactions == 0 {
				t.Fatalf("%d deletes kept the index and %d dropped it; the sequences must exercise both", kept, compactions)
			}
		})
	}
}

// TestEvalCorpusMatchesWalker: FuzzEval's seed corpus, which holds the
// evaluation's 55-query XMark workload, agrees with the oracle on an XMark
// document as well as on the fuzz target's hospital document.
func TestEvalCorpusMatchesWalker(t *testing.T) {
	doc := xmark.Generate(xmark.Options{Factor: 0.001, Seed: 3})
	corpus := fuzzCorpus(t)
	if len(corpus) < 55 {
		t.Fatalf("seed corpus holds %d inputs, want the 55 workload queries and more", len(corpus))
	}
	for _, q := range corpus {
		if p, err := Parse(q); err == nil {
			if err := sameAsWalker(p, doc); err != nil {
				t.Error(err)
			}
		}
	}
}

// TestIndexOneBuildUnderConcurrentReaders: readers racing on a freshly
// mutated document share a single index build and agree with the oracle.
// Index returns the index its caller loaded or built, so one pointer
// across all readers means one build.
func TestIndexOneBuildUnderConcurrentReaders(t *testing.T) {
	const readers = 8
	doc := xmark.Generate(xmark.Options{Factor: 0.001, Seed: 2})
	p := MustParse("//person[profile/age > 40]/name")
	for round := 0; round < 5; round++ {
		people, _ := Eval(MustParse("/site/people"), doc)
		persons, _ := Eval(MustParse("//person"), doc)
		if _, err := doc.InsertSubtree(people[0], copySubtree(persons[round])); err != nil {
			t.Fatal(err)
		}
		want, _ := walkEval(p, doc)
		var wg sync.WaitGroup
		seen := make([]*xmltree.Index, readers)
		errs := make(chan error, readers)
		for w := 0; w < readers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				seen[w] = doc.Index()
				got, err := Eval(p, doc)
				if err == nil && len(got) != len(want) {
					err = fmt.Errorf("reader matched %d, want %d", len(got), len(want))
				}
				if err != nil {
					errs <- err
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		for w, ix := range seen {
			if ix != seen[0] {
				t.Fatalf("round %d: readers 0 and %d hold different index builds", round, w)
			}
		}
	}
}
