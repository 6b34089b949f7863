package xmlac_test

// Golden tests for the request paths: every backend, with and without the
// CAM-backed query cache, must answer exactly as the Table 2 oracle does —
// grant-or-deny, exact error text, returned ids and Checked — on both
// documents and under all four policy semantics.

import (
	"testing"

	"xmlac"
	"xmlac/internal/bench"
	"xmlac/internal/hospital"
	"xmlac/internal/store/storetest"
	"xmlac/internal/xmark"
)

// observe is everything a caller can observe from one System.Request.
func observe(sys *xmlac.System, q *xmlac.Path) storetest.Answer {
	res, err := sys.Request(q)
	return storetest.Observe(res, err, sys.Engine().Relational())
}

// requestFixture bundles a schema, a deterministic document generator and a
// query workload.
type requestFixture struct {
	name    string
	schema  *xmlac.Schema
	gen     func() *xmlac.Document
	base    *xmlac.Policy
	queries []*xmlac.Path
}

func requestFixtures() []requestFixture {
	hosp := []string{
		"//patient", "//patient/name", "//regular", "//doctor", "//psn",
		"//treatment", "//patient[treatment]/name", "//staff", "//dept/name",
		"//patient[.//experimental]",
	}
	hq := make([]*xmlac.Path, len(hosp))
	for i, q := range hosp {
		hq[i] = xmlac.MustParseXPath(q)
	}
	return []requestFixture{
		{
			name:   "hospital",
			schema: xmlac.HospitalSchema(),
			gen: func() *xmlac.Document {
				return xmlac.GenerateHospital(hospital.GenOptions{
					Seed: 2, Departments: 3, PatientsPerDept: 25, StaffPerDept: 8,
				})
			},
			base:    xmlac.HospitalPolicy(),
			queries: hq,
		},
		{
			name:   "xmark",
			schema: xmlac.XMarkSchema(),
			gen: func() *xmlac.Document {
				return xmlac.GenerateXMark(xmark.Options{Factor: 0.001, Seed: 1})
			},
			base:    bench.MidPolicy(),
			queries: bench.Queries(),
		},
	}
}

// semantics are the four Default × Conflict combinations of Section 3.
var semantics = []struct {
	name          string
	def, conflict xmlac.Effect
}{
	{"deny-deny", xmlac.Deny, xmlac.Deny},
	{"deny-allow", xmlac.Deny, xmlac.Allow},
	{"allow-deny", xmlac.Allow, xmlac.Deny},
	{"allow-allow", xmlac.Allow, xmlac.Allow},
}

func buildRequestSystem(t *testing.T, fx requestFixture, def, conflict xmlac.Effect, b xmlac.Backend, mod func(*xmlac.Config)) *xmlac.System {
	t.Helper()
	pol := fx.base.Clone()
	pol.Default = def
	pol.Conflict = conflict
	cfg := xmlac.Config{Schema: fx.schema, Policy: pol, Backend: b, Optimize: true}
	if mod != nil {
		mod(&cfg)
	}
	sys, err := xmlac.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Load(fx.gen()); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Annotate(); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestOptimizedRequestPathsMatchReference is the golden matrix: document ×
// semantics × backend × query cache, every outcome equal to the answer
// storetest builds from policy.Semantics and xpath.Eval.
func TestOptimizedRequestPathsMatchReference(t *testing.T) {
	for _, fx := range requestFixtures() {
		for _, sem := range semantics {
			for _, b := range []xmlac.Backend{xmlac.BackendNative, xmlac.BackendColumn, xmlac.BackendVector, xmlac.BackendRow} {
				t.Run(fx.name+"/"+sem.name+"/"+b.String(), func(t *testing.T) {
					for _, cached := range []bool{false, true} {
						sys := buildRequestSystem(t, fx, sem.def, sem.conflict, b,
							func(c *xmlac.Config) { c.QueryCache = cached })
						pol := fx.base.Clone()
						pol.Default, pol.Conflict = sem.def, sem.conflict
						bad, err := storetest.Mismatches(sys, pol, fx.queries)
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
	}
}

// TestCachedNativeRequestsMatchReference runs the same matrix for the
// native backend's query-cache path.
func TestCachedNativeRequestsMatchReference(t *testing.T) {
	for _, fx := range requestFixtures() {
		for _, sem := range semantics {
			t.Run(fx.name+"/"+sem.name, func(t *testing.T) {
				ref := buildRequestSystem(t, fx, sem.def, sem.conflict, xmlac.BackendNative, nil)
				cached := buildRequestSystem(t, fx, sem.def, sem.conflict, xmlac.BackendNative,
					func(c *xmlac.Config) { c.QueryCache = true })
				for _, q := range fx.queries {
					want := observe(ref, q)
					if got := observe(cached, q); !got.Equal(want) {
						t.Errorf("query %s: got %+v, want %+v", q, got, want)
					}
				}
			})
		}
	}
}

// TestCachedRequestsSurviveUpdates checks the cache's version-stamp
// invalidation: after a delete update, cached answers must match a
// cache-less system that saw the same update.
func TestCachedRequestsSurviveUpdates(t *testing.T) {
	fx := requestFixtures()[0] // hospital
	del := xmlac.MustParseXPath("//patient/treatment")
	for _, b := range []xmlac.Backend{xmlac.BackendNative, xmlac.BackendColumn, xmlac.BackendVector, xmlac.BackendRow} {
		t.Run(b.String(), func(t *testing.T) {
			ref := buildRequestSystem(t, fx, xmlac.Deny, xmlac.Deny, b, nil)
			cached := buildRequestSystem(t, fx, xmlac.Deny, xmlac.Deny, b,
				func(c *xmlac.Config) { c.QueryCache = true })
			// Warm the cache, then invalidate it with an update.
			if _, err := cached.Request(fx.queries[0]); err != nil && err.Error() == "" {
				t.Fatal(err)
			}
			if _, err := ref.DeleteAndReannotate(del); err != nil {
				t.Fatal(err)
			}
			if _, err := cached.DeleteAndReannotate(del); err != nil {
				t.Fatal(err)
			}
			for _, q := range fx.queries {
				want := observe(ref, q)
				if got := observe(cached, q); !got.Equal(want) {
					t.Errorf("query %s: got %+v, want %+v", q, got, want)
				}
			}
		})
	}
}
