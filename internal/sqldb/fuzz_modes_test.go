// Enforcement-mode differential fuzzing. The engine differential fuzzer
// (fuzz_test.go) diffs the three SQL executors statement by statement;
// this file lifts the same idea one layer up and diffs the two
// *enforcement strategies* request by request: on every backend, the
// rewriting enforcer must answer a randomized XPath workload exactly as
// the materialized signs pipeline does — same grants, same checked
// counts, same id sets, same denial strings — and both must answer as
// the Table 2 oracle (storetest) does, so they cannot be wrong together.
// It lives in package
// sqldb_test so it can drive the full core.System without an import
// cycle (core → store → sqldb).
package sqldb_test

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"xmlac/internal/core"
	"xmlac/internal/hospital"
	"xmlac/internal/policy"
	"xmlac/internal/store/storetest"
	"xmlac/internal/xpath"
)

const modeFuzzRules = `
rule R1 allow //patient
rule R2 allow //patient/name
rule R3 deny //patient[treatment]
rule R4 allow //patient[treatment]/name
rule R5 deny //patient[.//experimental]
rule R6 allow //regular
rule R7 allow //regular[med = "celecoxib"]
rule R8 allow //regular[bill > 1000]
`

var modeFuzzBackends = []core.Backend{core.BackendNative, core.BackendRow, core.BackendColumn, core.BackendVector}

// fuzzLabels are the hospital element vocabulary plus the wildcard; the
// generator draws steps from it so queries hit real, empty and mixed
// scopes alike.
var fuzzLabels = []string{
	"hospital", "dept", "patients", "staffinfo", "patient", "treatment",
	"regular", "experimental", "staff", "nurse", "doctor",
	"psn", "name", "med", "bill", "test", "sid", "phone", "*",
}

// randXPath generates one random absolute query: 1–4 child or descendant
// steps over the hospital vocabulary with occasional existence and value
// predicates — enough variety to stress both the relational translation
// and the rewriter's scope algebra.
func randXPath(r *rand.Rand) string {
	var b strings.Builder
	steps := 1 + r.Intn(4)
	for i := 0; i < steps; i++ {
		if r.Intn(2) == 0 {
			b.WriteString("//")
		} else {
			b.WriteString("/")
		}
		b.WriteString(fuzzLabels[r.Intn(len(fuzzLabels))])
		switch r.Intn(8) {
		case 0:
			b.WriteString("[" + fuzzLabels[r.Intn(len(fuzzLabels)-1)] + "]")
		case 1:
			b.WriteString(fmt.Sprintf("[bill > %d]", r.Intn(3000)))
		case 2:
			b.WriteString(`[med = "celecoxib"]`)
		}
	}
	return b.String()
}

// renderModeDecision flattens a request outcome for comparison; errors
// compare by full text, grants by checked count plus the relational id
// vector and native node identities.
func renderModeDecision(res *core.RequestResult, err error) string {
	if err != nil {
		return "err: " + err.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "checked=%d ids=%v", res.Checked, res.IDs)
	for _, n := range res.Nodes {
		fmt.Fprintf(&b, " node=%d(%s)", n.ID, n.Label)
	}
	return b.String()
}

// TestModeDifferentialFuzz replays randomized query workloads over
// randomized documents and semantics, and requires every backend's
// answers in both modes to equal the Table 2 oracle's, its rewrite-mode
// answer to be byte-identical to its signs-mode answer, and the three
// relational engines to agree with each other within each mode.
func TestModeDifferentialFuzz(t *testing.T) {
	seeds := 10
	if testing.Short() {
		seeds = 3
	}
	for seed := 0; seed < seeds; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		doc := hospital.Generate(hospital.GenOptions{
			Seed: uint64(seed), Departments: 1 + r.Intn(2),
			PatientsPerDept: 4 + r.Intn(8), StaffPerDept: 1 + r.Intn(3),
		})
		ds := []policy.Effect{policy.Allow, policy.Deny}[r.Intn(2)]
		cr := []policy.Effect{policy.Allow, policy.Deny}[r.Intn(2)]
		pol := policy.MustParse(modeFuzzRules)
		pol.Default, pol.Conflict = ds, cr

		type pair struct{ signs, rewrite *core.System }
		systems := map[core.Backend]pair{}
		for _, b := range modeFuzzBackends {
			var p pair
			for _, mode := range []core.EnforceMode{core.EnforceSigns, core.EnforceRewrite} {
				sys, err := core.NewSystem(core.Config{
					Schema: hospital.Schema(), Policy: pol.Clone(),
					Backend: b, Optimize: true, Enforce: mode,
				})
				if err != nil {
					t.Fatalf("seed %d backend %v mode %v: %v", seed, b, mode, err)
				}
				if err := sys.Load(doc.Clone()); err != nil {
					t.Fatal(err)
				}
				if mode == core.EnforceSigns {
					if _, err := sys.Annotate(); err != nil {
						t.Fatal(err)
					}
					p.signs = sys
				} else {
					p.rewrite = sys
				}
			}
			systems[b] = p
		}

		var queries []*xpath.Path
		for i := 0; i < 50; i++ {
			q, err := xpath.Parse(randXPath(r))
			if err != nil {
				continue // generator produced something the parser rejects
			}
			queries = append(queries, q)
		}

		// Both modes on every backend answer as the oracle does: the same
		// accessible universe and the same decision on every query.
		for _, b := range modeFuzzBackends {
			for _, sys := range []*core.System{systems[b].signs, systems[b].rewrite} {
				want, err := pol.Semantics(sys.Document())
				if err != nil {
					t.Fatal(err)
				}
				got, err := sys.AccessibleIDs()
				if err != nil {
					t.Fatal(err)
				}
				if !maps.Equal(got, want) {
					t.Fatalf("seed %d ds=%v cr=%v backend %v mode %v: AccessibleIDs has %d ids, oracle %d",
						seed, ds, cr, b, sys.ActiveMode(), len(got), len(want))
				}
				bad, err := storetest.Mismatches(sys, pol, queries)
				if err != nil {
					t.Fatal(err)
				}
				if len(bad) > 0 {
					t.Fatalf("seed %d ds=%v cr=%v backend %v mode %v disagrees with the oracle:\n  %s",
						seed, ds, cr, b, sys.ActiveMode(), strings.Join(bad, "\n  "))
				}
			}
		}

		for _, q := range queries {
			qs := q.String()
			// Relational engines must also agree with each other per mode.
			var relSigns, relRewrite string
			for _, b := range modeFuzzBackends {
				p := systems[b]
				sres, serr := p.signs.Request(q)
				rres, rerr := p.rewrite.Request(q)
				signs, rewrite := renderModeDecision(sres, serr), renderModeDecision(rres, rerr)
				if signs != rewrite {
					t.Fatalf("seed %d ds=%v cr=%v backend %v query %s:\n  signs   %s\n  rewrite %s",
						seed, ds, cr, b, qs, signs, rewrite)
				}
				if b == core.BackendNative {
					continue
				}
				if relSigns == "" {
					relSigns, relRewrite = signs, rewrite
					continue
				}
				if signs != relSigns || rewrite != relRewrite {
					t.Fatalf("seed %d query %s: relational engines diverge on %v:\n  %s\n  %s",
						seed, qs, b, relSigns, signs)
				}
			}
		}
	}
}

// TestModeFlipRaceHammer drives concurrent requests — auto mode, forced
// rewrite, and forced signs — while the main goroutine flips the
// system's enforcement mode back and forth and a writer applies
// (empty-scope) deletes. Run under -race this is the locking proof for
// SetEnforceMode: every observed outcome must be a grant, an access
// denial, or the documented signs-not-materialized refusal.
func TestModeFlipRaceHammer(t *testing.T) {
	pol := policy.MustParse("default deny\nconflict deny\n" + modeFuzzRules)
	sys, err := core.NewSystem(core.Config{
		Schema: hospital.Schema(), Policy: pol,
		Backend: core.BackendVector, Optimize: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	doc := hospital.Generate(hospital.GenOptions{Seed: 77, Departments: 2, PatientsPerDept: 10, StaffPerDept: 3})
	if err := sys.Load(doc); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Annotate(); err != nil {
		t.Fatal(err)
	}
	queries := []*xpath.Path{
		xpath.MustParse("//patient/name"),
		xpath.MustParse("//regular"),
		xpath.MustParse("//patient"),
		xpath.MustParse("//staff"),
	}
	okErr := func(err error) bool {
		return err == nil || errors.Is(err, core.ErrAccessDenied) ||
			strings.Contains(err.Error(), "signs are not materialized")
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mode := []core.EnforceMode{core.EnforceAuto, core.EnforceSigns, core.EnforceRewrite}[w%3]
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := sys.RequestMode(queries[i%len(queries)], mode); !okErr(err) {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		noScope := xpath.MustParse(`//experimental[test = "no-such-value"]`)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := sys.DeleteAndReannotate(noScope); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 40; i++ {
		if err := sys.SetEnforceMode(core.EnforceRewrite); err != nil {
			t.Fatal(err)
		}
		if err := sys.SetEnforceMode(core.EnforceSigns); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
