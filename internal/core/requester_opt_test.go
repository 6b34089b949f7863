package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"xmlac/internal/dtd"
	"xmlac/internal/hospital"
	"xmlac/internal/obs"
	"xmlac/internal/policy"
	"xmlac/internal/shred"
	"xmlac/internal/store"
	"xmlac/internal/store/storetest"
	"xmlac/internal/xmark"
	"xmlac/internal/xmltree"
	"xmlac/internal/xpath"
)

// flatSystem builds an annotated system over a flat document <r> with n <c/>
// children.
func flatSystem(t *testing.T, b Backend, n int, polText string) *System {
	t.Helper()
	schema := dtd.MustParse(`
<!ELEMENT r (c*)>
<!ELEMENT c EMPTY>
`)
	sys, err := NewSystem(Config{Schema: schema, Policy: policy.MustParse(polText), Backend: b, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	var xml strings.Builder
	xml.WriteString("<r>")
	for i := 0; i < n; i++ {
		xml.WriteString("<c/>")
	}
	xml.WriteString("</r>")
	doc, err := xmltree.ParseString(xml.String())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Load(doc); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Annotate(); err != nil {
		t.Fatal(err)
	}
	return sys
}

const allowAllPolicy = `
default allow
conflict allow
rule R1 allow //r
`

const rootOnlyPolicy = `
default deny
conflict deny
rule R1 allow //r
`

// TestRequestLargeResultSortedIDs is the regression test for the former
// O(n²) insertion sort on large relational result sets: the ids must come
// back ascending and complete.
func TestRequestLargeResultSortedIDs(t *testing.T) {
	const n = 600
	for _, b := range []Backend{BackendColumn, BackendRow} {
		t.Run(b.String(), func(t *testing.T) {
			sys := flatSystem(t, b, n, allowAllPolicy)
			res, err := sys.Request(xpath.MustParse("//c"))
			if err != nil {
				t.Fatal(err)
			}
			if res.Checked != n || len(res.IDs) != n {
				t.Fatalf("Checked = %d, len(IDs) = %d, want %d", res.Checked, len(res.IDs), n)
			}
			if !slices.IsSorted(res.IDs) {
				t.Error("IDs are not ascending")
			}
			var want []int64
			sys.Document().Walk(func(nd *xmltree.Node) bool {
				if nd.IsElement() && nd.Label == "c" {
					want = append(want, nd.ID)
				}
				return true
			})
			slices.Sort(want)
			if !slices.Equal(res.IDs, want) {
				t.Error("IDs do not match the document's c nodes")
			}
		})
	}
}

// TestRequestBatchBoundary exercises result sizes at the 256-id IN-batch
// boundary, granted and denied.
func TestRequestBatchBoundary(t *testing.T) {
	for _, n := range []int{255, 256, 257} {
		for _, b := range []Backend{BackendColumn, BackendRow} {
			t.Run(fmt.Sprintf("%s/n=%d/granted", b, n), func(t *testing.T) {
				sys := flatSystem(t, b, n, allowAllPolicy)
				res, err := sys.Request(xpath.MustParse("//c"))
				if err != nil {
					t.Fatal(err)
				}
				if res.Checked != n || len(res.IDs) != n {
					t.Errorf("Checked = %d, len(IDs) = %d, want %d", res.Checked, len(res.IDs), n)
				}
			})
			t.Run(fmt.Sprintf("%s/n=%d/denied", b, n), func(t *testing.T) {
				sys := flatSystem(t, b, n, rootOnlyPolicy)
				_, err := sys.Request(xpath.MustParse("//c"))
				if !errors.Is(err, ErrAccessDenied) {
					t.Fatalf("err = %v, want ErrAccessDenied", err)
				}
				// The denial must name the smallest denied id so the
				// optimized paths stay byte-identical to the reference.
				var smallest int64
				sys.Document().Walk(func(nd *xmltree.Node) bool {
					if nd.IsElement() && nd.Label == "c" && (smallest == 0 || nd.ID < smallest) {
						smallest = nd.ID
					}
					return true
				})
				want := fmt.Sprintf("node %d is not accessible", smallest)
				if !strings.Contains(err.Error(), want) {
					t.Errorf("err = %q, want mention of %q", err, want)
				}
			})
		}
	}
}

// TestRequestCheckedDeduplicatesWitnesses pins the duplicate-id semantics:
// a translated qualifier query returns one row per witness, but Checked
// counts distinct matched nodes on every backend and every mode.
func TestRequestCheckedDeduplicatesWitnesses(t *testing.T) {
	schema := dtd.MustParse(`
<!ELEMENT r (p*)>
<!ELEMENT p (t*)>
<!ELEMENT t EMPTY>
`)
	const xml = `<r><p><t/><t/></p><p><t/><t/></p><p><t/><t/></p></r>`
	pol := `
default allow
conflict allow
rule R1 allow //r
`
	build := func(t *testing.T, b Backend, mod func(*Config)) *System {
		t.Helper()
		cfg := Config{Schema: schema, Policy: policy.MustParse(pol), Backend: b, Optimize: true}
		if mod != nil {
			mod(&cfg)
		}
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := xmltree.ParseString(xml)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Load(doc); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Annotate(); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	q := xpath.MustParse("//p[t]")

	native := build(t, BackendNative, nil)
	nres, err := native.Request(q)
	if err != nil {
		t.Fatal(err)
	}
	if nres.Checked != 3 || len(nres.Nodes) != 3 {
		t.Fatalf("native Checked = %d, len(Nodes) = %d, want 3", nres.Checked, len(nres.Nodes))
	}

	// "reference" is the all-tables sign probe, reached as the fallback for
	// ids the owner index does not know.
	modes := map[string]func(*testing.T, *System){
		"reference": forgetOwners,
		"routed":    nil,
		"qcache":    nil,
	}
	for _, b := range []Backend{BackendColumn, BackendRow} {
		for name, prep := range modes {
			t.Run(b.String()+"/"+name, func(t *testing.T) {
				sys := build(t, b, func(c *Config) { c.QueryCache = name == "qcache" })
				if prep != nil {
					prep(t, sys)
				}
				// The raw translated SQL really does return duplicate rows
				// (one per witness t); that is what Checked must not count.
				rel := sys.Engine().(store.Relational)
				sqlText, err := shred.Translate(rel.Mapping(), q)
				if err != nil {
					t.Fatal(err)
				}
				raw, err := rel.DB().Exec(sqlText)
				if err != nil {
					t.Fatal(err)
				}
				if len(raw.Rows) != 6 {
					t.Fatalf("raw SQL rows = %d, want 6 (2 witnesses per p)", len(raw.Rows))
				}
				res, err := sys.Request(q)
				if err != nil {
					t.Fatal(err)
				}
				if res.Checked != 3 || len(res.IDs) != 3 {
					t.Errorf("Checked = %d, len(IDs) = %d, want 3", res.Checked, len(res.IDs))
				}
				if res.Checked != nres.Checked {
					t.Errorf("relational Checked %d != native Checked %d", res.Checked, nres.Checked)
				}
				bad, err := storetest.Mismatches(sys, policy.MustParse(pol), []*xpath.Path{q})
				if err != nil {
					t.Fatal(err)
				}
				for _, line := range bad {
					t.Error(line)
				}
			})
		}
	}
}

// forgetOwners empties a relational system's owner index, so every sign
// probe takes the all-tables fallback.
func forgetOwners(t *testing.T, sys *System) {
	t.Helper()
	m := sys.Engine().(store.Relational).Mapping()
	for _, n := range sys.Document().Elements() {
		m.ForgetOwner(n.ID)
	}
	if got := m.OwnerRanges(); got != 0 {
		t.Fatalf("owner index keeps %d ranges after forgetting every id", got)
	}
}

// TestRequestSpanOutcomesAndModes checks the check-access span's outcome
// and mode attributes on the relational request paths, and that the
// answers under the span are the oracle's.
func TestRequestSpanOutcomesAndModes(t *testing.T) {
	granted := xpath.MustParse("//patient/name")
	denied := xpath.MustParse("//patient")

	cases := []struct {
		name   string
		cached bool
		prep   func(*testing.T, *System)
		mode   string
	}{
		{"reference", false, forgetOwners, "routed"},
		{"routed", false, nil, "routed"},
		{"qcache", true, nil, "qcache"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			col := &obs.Collector{}
			cfg := Config{
				Schema:     hospital.Schema(),
				Policy:     policy.MustParse(table1Policy),
				Backend:    BackendRow,
				Optimize:   true,
				QueryCache: tc.cached,
				Tracer:     obs.NewTracer(col),
			}
			sys, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.Load(hospital.Document()); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Annotate(); err != nil {
				t.Fatal(err)
			}
			if tc.prep != nil {
				tc.prep(t, sys)
			}

			col.Reset()
			if _, err := sys.Request(granted); err != nil {
				t.Fatal(err)
			}
			check := col.Root("request").Child("check-access")
			if check == nil {
				t.Fatal("no check-access span")
			}
			if got := check.Attr("outcome"); got != "granted" {
				t.Errorf("outcome = %v, want granted", got)
			}
			if got := check.Attr("mode"); got != tc.mode {
				t.Errorf("mode = %v, want %s", got, tc.mode)
			}

			col.Reset()
			if _, err := sys.Request(denied); !errors.Is(err, ErrAccessDenied) {
				t.Fatalf("err = %v, want ErrAccessDenied", err)
			}
			check = col.Root("request").Child("check-access")
			if check == nil {
				t.Fatal("no check-access span")
			}
			if got := check.Attr("outcome"); got != "denied" {
				t.Errorf("outcome = %v, want denied", got)
			}

			bad, err := storetest.Mismatches(sys, policy.MustParse(table1Policy), []*xpath.Path{granted, denied})
			if err != nil {
				t.Fatal(err)
			}
			for _, line := range bad {
				t.Error(line)
			}
		})
	}
}

// TestRoutedRequestsSurviveDeletes checks that id routing stays correct
// after deletes drop ids from the owner index and an insert adds ids the
// shredder never saw: after the updates, every answer, cached or not,
// must be the oracle's on the updated document. The inserted patients get
// the highest ids while sitting before later departments in document
// order, so the relational results must be sorted, not merely deduplicated.
func TestRoutedRequestsSurviveDeletes(t *testing.T) {
	patient := xmltree.NewSubtree("patient")
	xmltree.AddTemplateText(xmltree.AddTemplateChild(patient, "psn"), "900")
	xmltree.AddTemplateText(xmltree.AddTemplateChild(patient, "name"), "inserted")
	regular := xmltree.AddTemplateChild(xmltree.AddTemplateChild(patient, "treatment"), "regular")
	xmltree.AddTemplateText(xmltree.AddTemplateChild(regular, "med"), "celecoxib")
	xmltree.AddTemplateText(xmltree.AddTemplateChild(regular, "bill"), "50")
	var queries []*xpath.Path
	for _, qs := range []string{"//patient/name", "//patient", "//regular", "//doctor", "//treatment", "//psn", "//bill"} {
		queries = append(queries, xpath.MustParse(qs))
	}
	for _, b := range []Backend{BackendColumn, BackendRow} {
		t.Run(b.String(), func(t *testing.T) {
			for _, cached := range []bool{false, true} {
				sys, err := NewSystem(Config{
					Schema: hospital.Schema(), Policy: policy.MustParse(table1Policy),
					Backend: b, Optimize: true, QueryCache: cached,
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := sys.Load(hospital.Generate(hospital.GenOptions{
					Seed: 5, Departments: 2, PatientsPerDept: 6, StaffPerDept: 2,
				})); err != nil {
					t.Fatal(err)
				}
				if _, err := sys.Annotate(); err != nil {
					t.Fatal(err)
				}
				if sys.Engine().(store.Relational).Mapping().OwnerRanges() == 0 {
					t.Fatal("owner index is empty after load")
				}
				if _, err := sys.DeleteAndReannotate(xpath.MustParse("//patient/treatment")); err != nil {
					t.Fatal(err)
				}
				if _, err := sys.InsertAndReannotate(xpath.MustParse("//patients"), patient); err != nil {
					t.Fatal(err)
				}
				bad, err := storetest.Mismatches(sys, policy.MustParse(table1Policy), queries)
				if err != nil {
					t.Fatal(err)
				}
				for _, line := range bad {
					t.Errorf("QueryCache=%v: %s", cached, line)
				}
			}
		})
	}
}

// TestAllTablesFallbackMatchesOracle drives the all-tables sign probe end
// to end: with the owner index emptied, no id can be routed, so every
// relational request probes every table — and must still answer exactly
// as the Table 2 oracle does, on both fixtures under all four semantics.
func TestAllTablesFallbackMatchesOracle(t *testing.T) {
	fixtures := []struct {
		name   string
		schema *dtd.Schema
		doc    *xmltree.Document
		pol    string
	}{
		{"hospital", hospital.Schema(), hospital.Generate(hospital.GenOptions{
			Seed: 2, Departments: 2, PatientsPerDept: 10, StaffPerDept: 4,
		}), table1Policy},
		{"xmark", xmark.Schema(), xmark.Generate(xmark.Options{Factor: 0.002, Seed: 3}), xmarkTestPolicy},
	}
	for _, fx := range fixtures {
		for _, ds := range []policy.Effect{policy.Deny, policy.Allow} {
			for _, cr := range []policy.Effect{policy.Deny, policy.Allow} {
				for _, b := range []Backend{BackendColumn, BackendVector, BackendRow} {
					t.Run(fmt.Sprintf("%s/ds=%v/cr=%v/%v", fx.name, ds, cr, b), func(t *testing.T) {
						pol := policy.MustParse(fx.pol)
						pol.Default, pol.Conflict = ds, cr
						sys, err := NewSystem(Config{Schema: fx.schema, Policy: pol.Clone(), Backend: b, Optimize: true})
						if err != nil {
							t.Fatal(err)
						}
						if err := sys.Load(fx.doc.Clone()); err != nil {
							t.Fatal(err)
						}
						if _, err := sys.Annotate(); err != nil {
							t.Fatal(err)
						}
						forgetOwners(t, sys)
						var queries []*xpath.Path
						for _, qs := range crossModeQueries[fx.name] {
							queries = append(queries, xpath.MustParse(qs))
						}
						bad, err := storetest.Mismatches(sys, pol, queries)
						if err != nil {
							t.Fatal(err)
						}
						for _, line := range bad {
							t.Error(line)
						}
					})
				}
			}
		}
	}
}
