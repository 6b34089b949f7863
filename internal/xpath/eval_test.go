package xpath

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"xmlac/internal/xmltree"
)

func mustDoc(t *testing.T, s string) *xmltree.Document {
	t.Helper()
	d, err := xmltree.ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// labelsOf projects a node set to its labels for compact assertions.
func labelsOf(nodes []*xmltree.Node) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.Label
	}
	return out
}

func evalLabels(t *testing.T, doc *xmltree.Document, expr string) []string {
	t.Helper()
	res, err := Eval(MustParse(expr), doc)
	if err != nil {
		t.Fatalf("Eval(%q): %v", expr, err)
	}
	return labelsOf(res)
}

const hospitalDoc = `<hospital><dept><patients>` +
	`<patient><psn>033</psn><name>john doe</name><treatment><regular><med>enoxaparin</med><bill>700</bill></regular></treatment></patient>` +
	`<patient><psn>042</psn><name>jane doe</name><treatment><experimental><test>regression hypnosis</test><bill>1600</bill></experimental></treatment></patient>` +
	`<patient><psn>099</psn><name>joy smith</name></patient>` +
	`</patients><staffinfo/></dept></hospital>`

func TestEvalChildAndDescendant(t *testing.T) {
	doc := mustDoc(t, `<a><b><c/></b><c/></a>`)
	if got := evalLabels(t, doc, "/a"); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("/a = %v", got)
	}
	if got := evalLabels(t, doc, "/a/c"); len(got) != 1 {
		t.Fatalf("/a/c = %v", got)
	}
	if got := evalLabels(t, doc, "//c"); len(got) != 2 {
		t.Fatalf("//c = %v", got)
	}
	if got := evalLabels(t, doc, "/a//c"); len(got) != 2 {
		t.Fatalf("/a//c = %v", got)
	}
	// //a matches the root element itself.
	if got := evalLabels(t, doc, "//a"); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("//a = %v", got)
	}
	// /b does not match a non-root element.
	if got := evalLabels(t, doc, "/b"); len(got) != 0 {
		t.Fatalf("/b = %v", got)
	}
}

func TestEvalWildcard(t *testing.T) {
	doc := mustDoc(t, `<a><b/><c><d/></c></a>`)
	if got := evalLabels(t, doc, "/a/*"); !reflect.DeepEqual(got, []string{"b", "c"}) {
		t.Fatalf("/a/* = %v", got)
	}
	if got := evalLabels(t, doc, "//*"); len(got) != 4 {
		t.Fatalf("//* = %v", got)
	}
	if got := evalLabels(t, doc, "/*/*/d"); !reflect.DeepEqual(got, []string{"d"}) {
		t.Fatalf("/*/*/d = %v", got)
	}
}

func TestEvalExistencePredicates(t *testing.T) {
	doc := mustDoc(t, hospitalDoc)
	// Patients with a treatment: the first two.
	res, err := Eval(MustParse("//patient[treatment]"), doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("//patient[treatment] matched %d", len(res))
	}
	// Patients with an experimental treatment anywhere below: the second.
	res, err = Eval(MustParse("//patient[.//experimental]"), doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("//patient[.//experimental] matched %d", len(res))
	}
	// Multi-step qualifier path.
	res, err = Eval(MustParse("//patient[treatment/regular]"), doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("//patient[treatment/regular] matched %d", len(res))
	}
}

func TestEvalValueComparisons(t *testing.T) {
	doc := mustDoc(t, hospitalDoc)
	cases := []struct {
		expr string
		n    int
	}{
		{`//regular[med = "celecoxib"]`, 0},
		{`//regular[med = "enoxaparin"]`, 1},
		{`//regular[bill > 1000]`, 0},
		{`//regular[bill > 500]`, 1},
		{`//experimental[bill > 1000]`, 1},
		{`//patient[psn = "033"]`, 1},
		{`//patient[psn = 33]`, 1}, // numeric coercion: "033" == 33
		{`//regular[bill >= 700]`, 1},
		{`//regular[bill <= 700]`, 1},
		{`//regular[bill < 700]`, 0},
		{`//regular[bill != 700]`, 0},
		{`//regular[med != "celecoxib"]`, 1},
		{`//patient[name > 5]`, 0}, // non-numeric value with numeric op
	}
	for _, c := range cases {
		res, err := Eval(MustParse(c.expr), doc)
		if err != nil {
			t.Errorf("Eval(%q): %v", c.expr, err)
			continue
		}
		if len(res) != c.n {
			t.Errorf("Eval(%q) matched %d, want %d", c.expr, len(res), c.n)
		}
	}
}

func TestEvalAndQualifier(t *testing.T) {
	doc := mustDoc(t, hospitalDoc)
	res, err := Eval(MustParse(`//patient[treatment and name = "john doe"]`), doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("matched %d", len(res))
	}
	res, err = Eval(MustParse(`//patient[treatment and name = "joy smith"]`), doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("matched %d, want 0", len(res))
	}
}

func TestEvalSelfQualifier(t *testing.T) {
	doc := mustDoc(t, `<a><b/></a>`)
	res, err := Eval(MustParse("/a[.]"), doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("/a[.] matched %d", len(res))
	}
}

func TestEvalDocumentOrderAndDedup(t *testing.T) {
	doc := mustDoc(t, `<a><b><c/></b><b><c/></b></a>`)
	res, err := Eval(MustParse("//b/c"), doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("matched %d", len(res))
	}
	if res[0].ID >= res[1].ID {
		t.Fatalf("not in document order: %v then %v", res[0].ID, res[1].ID)
	}
	// Overlapping descendant steps must not produce duplicates.
	res, err = Eval(MustParse("//a//c"), doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("//a//c matched %d (duplicates?)", len(res))
	}
}

// TestEvalRelativeQualifiers: qualifier paths are relative to the
// candidate — a child path, a .// path and the bare "." each decide from
// the node being tested, not from the root.
func TestEvalRelativeQualifiers(t *testing.T) {
	doc := mustDoc(t, hospitalDoc)
	cases := []struct{ expr, want string }{
		{`//patient[name = "john doe"]/psn`, "033"},
		{`//patient[.//bill = 1600]/psn`, "042"},
		{`//patient[. = "099joy smith"]/psn`, "099"},
		{`//name[. = "jane doe"]`, "jane doe"},
	}
	for _, c := range cases {
		res, err := Eval(MustParse(c.expr), doc)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || res[0].TextContent() != c.want {
			t.Errorf("%s matched %d nodes, want the one reading %q", c.expr, len(res), c.want)
		}
	}
}

func TestEvalRejectsWrongPathKinds(t *testing.T) {
	doc := mustDoc(t, `<a/>`)
	if _, err := Eval(MustParse("a"), doc); err == nil {
		t.Error("Eval accepted relative path")
	}
	if _, err := Eval(&Path{Absolute: true}, doc); err == nil {
		t.Error("Eval accepted the empty absolute path")
	}
}

// TestEvalDocumentOrderAfterInserts: inserted nodes get the highest ids,
// yet Eval answers in document order. A patient inserted under the first
// department's patients comes before every patient of the second.
func TestEvalDocumentOrderAfterInserts(t *testing.T) {
	doc := mustDoc(t, `<hospital>`+
		`<dept><patients><patient><name>a1</name></patient></patients></dept>`+
		`<dept><patients><patient><name>b1</name></patient></patients></dept>`+
		`</hospital>`)
	lists, _ := Eval(MustParse("//patients"), doc)
	for i, l := range lists {
		tmpl := xmltree.NewSubtree("patient")
		xmltree.AddTemplateText(xmltree.AddTemplateChild(tmpl, "name"), []string{"a2", "b2"}[i])
		if _, err := doc.InsertSubtree(l, tmpl); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Eval(MustParse("//patient/name"), doc)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, n := range res {
		got = append(got, n.TextContent())
	}
	if want := []string{"a1", "a2", "b1", "b2"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("//patient/name after inserts = %v, want document order %v", got, want)
	}
	if res[1].ID < res[2].ID {
		t.Fatalf("fixture does not exercise the order: ids %d, %d", res[1].ID, res[2].ID)
	}
}

func TestMatches(t *testing.T) {
	doc := mustDoc(t, hospitalDoc)
	patients, _ := Eval(MustParse("//patient"), doc)
	ok, err := Matches(MustParse("//patient[treatment]"), doc, patients[0])
	if err != nil || !ok {
		t.Fatalf("Matches = %v, %v", ok, err)
	}
	ok, err = Matches(MustParse("//patient[treatment]"), doc, patients[2])
	if err != nil || ok {
		t.Fatalf("Matches = %v, %v (joy smith has no treatment)", ok, err)
	}
}

// randomTree builds a random labeled tree for property tests.
func randomTree(r *rand.Rand) *xmltree.Document {
	labels := []string{"a", "b", "c"}
	d := xmltree.NewDocument(labels[r.Intn(len(labels))])
	nodes := []*xmltree.Node{d.Root()}
	n := r.Intn(30)
	for i := 0; i < n; i++ {
		p := nodes[r.Intn(len(nodes))]
		c := d.AddElement(p, labels[r.Intn(len(labels))])
		nodes = append(nodes, c)
	}
	return d
}

// randomPath builds a random absolute path over labels {a,b,c,*}.
func randomPath(r *rand.Rand) *Path {
	labels := []string{"a", "b", "c", "*"}
	p := &Path{Absolute: true}
	n := 1 + r.Intn(3)
	for i := 0; i < n; i++ {
		axis := Child
		if r.Intn(2) == 0 {
			axis = Descendant
		}
		s := &Step{Axis: axis, Test: labels[r.Intn(len(labels))]}
		if r.Intn(4) == 0 {
			s.Preds = []*Pred{{Kind: Exists, Path: &Path{Steps: []*Step{{
				Axis: Child, Test: labels[r.Intn(3)],
			}}}}}
		}
		p.Steps = append(p.Steps, s)
	}
	return p
}

// TestQuickDescendantSubsumesChild: [[p with child axis]] ⊆ [[p with the
// same step made descendant]] — a structural soundness property of the
// evaluator.
func TestQuickDescendantSubsumesChild(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := randomTree(r)
		p := randomPath(r)
		// Pick a random step and loosen it to descendant.
		loose := p.Clone()
		loose.Steps[r.Intn(len(loose.Steps))].Axis = Descendant
		resP, err1 := Eval(p, doc)
		resL, err2 := Eval(loose, doc)
		if err1 != nil || err2 != nil {
			return false
		}
		in := map[*xmltree.Node]bool{}
		for _, n := range resL {
			in[n] = true
		}
		for _, n := range resP {
			if !in[n] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDropPredicateGrowsResult: removing a qualifier can only grow the
// result set.
func TestQuickDropPredicateGrowsResult(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := randomTree(r)
		p := randomPath(r)
		resP, err := Eval(p, doc)
		if err != nil {
			return false
		}
		resS, err := Eval(p.StripPredicates(), doc)
		if err != nil {
			return false
		}
		in := map[*xmltree.Node]bool{}
		for _, n := range resS {
			in[n] = true
		}
		for _, n := range resP {
			if !in[n] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickWildcardSubsumesLabel: replacing a node test with * can only grow
// the result set.
func TestQuickWildcardSubsumesLabel(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := randomTree(r)
		p := randomPath(r)
		w := p.Clone()
		w.Steps[r.Intn(len(w.Steps))].Test = Wildcard
		resP, err1 := Eval(p, doc)
		resW, err2 := Eval(w, doc)
		if err1 != nil || err2 != nil {
			return false
		}
		in := map[*xmltree.Node]bool{}
		for _, n := range resW {
			in[n] = true
		}
		for _, n := range resP {
			if !in[n] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
