package core

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"xmlac/internal/hospital"
	"xmlac/internal/obs"
	"xmlac/internal/policy"
	"xmlac/internal/xmltree"
	"xmlac/internal/xpath"
)

// TestSnapshotOneBuildPerVersion: each store version builds its derived
// access artifact exactly once, however many readers race for it, and the
// readers see the oracle's answer. After every write, 8 goroutines
// released together by a barrier call Request, Why and AccessibleIDs.
func TestSnapshotOneBuildPerVersion(t *testing.T) {
	cases := []struct {
		backend Backend
		mode    EnforceMode
		builds  string // counter that ticks once per artifact build
	}{
		{BackendNative, EnforceSigns, "core_qcache_misses_total"},
		{BackendRow, EnforceSigns, "core_qcache_misses_total"},
		{BackendNative, EnforceRewrite, "core_rewrite_scope_rebuilds_total"},
		{BackendVector, EnforceRewrite, "core_rewrite_scope_rebuilds_total"},
	}
	queries := []*xpath.Path{
		xpath.MustParse("//patient/name"),
		xpath.MustParse("//regular"),
		xpath.MustParse("//patient"),
		xpath.MustParse("//experimental"),
	}
	tmpl := xmltree.NewSubtree("treatment")
	reg := xmltree.AddTemplateChild(tmpl, "regular")
	xmltree.AddTemplateText(xmltree.AddTemplateChild(reg, "med"), "celecoxib")
	xmltree.AddTemplateText(xmltree.AddTemplateChild(reg, "bill"), "150")
	writes := []func(*System) error{
		func(s *System) error {
			_, err := s.DeleteAndReannotate(xpath.MustParse("//experimental"))
			return err
		},
		func(s *System) error {
			_, err := s.InsertAndReannotate(xpath.MustParse(`//patient[psn = "001"]`), tmpl)
			return err
		},
		func(s *System) error {
			_, err := s.DeleteAndReannotate(xpath.MustParse("//regular[bill > 1000]"))
			return err
		},
		func(s *System) error {
			_, err := s.DeleteAndReannotate(xpath.MustParse(`//patient[psn = "002"]`))
			return err
		},
	}
	for _, tc := range cases {
		t.Run(tc.backend.String()+"/"+tc.mode.String(), func(t *testing.T) {
			metrics := obs.NewRegistry()
			pol := policy.MustParse(table1Policy)
			sys, err := NewSystem(Config{
				Schema:     hospital.Schema(),
				Policy:     pol,
				Backend:    tc.backend,
				Optimize:   true,
				QueryCache: true,
				Enforce:    tc.mode,
				Metrics:    metrics,
			})
			if err != nil {
				t.Fatal(err)
			}
			doc := hospital.Generate(hospital.GenOptions{Seed: 3, Departments: 2, PatientsPerDept: 8, StaffPerDept: 1})
			if err := sys.Load(doc); err != nil {
				t.Fatal(err)
			}
			if tc.mode == EnforceSigns {
				if _, err := sys.Annotate(); err != nil {
					t.Fatal(err)
				}
			}
			builds := metrics.Counter(tc.builds)
			for step := 0; step <= len(writes); step++ {
				if step > 0 {
					if err := writes[step-1](sys); err != nil {
						t.Fatalf("write %d: %v", step, err)
					}
				}
				before := builds.Value()
				start := make(chan struct{})
				var wg sync.WaitGroup
				for g := 0; g < 8; g++ {
					wg.Add(1)
					go func(q *xpath.Path) {
						defer wg.Done()
						<-start
						if _, err := sys.Request(q); err != nil && !errors.Is(err, ErrAccessDenied) {
							t.Error(err)
						}
						if _, err := sys.Why(q); err != nil {
							t.Error(err)
						}
						if _, err := sys.AccessibleIDs(); err != nil {
							t.Error(err)
						}
					}(queries[g%len(queries)])
				}
				close(start)
				wg.Wait()
				if got := builds.Value() - before; got != 1 {
					t.Errorf("step %d: %s rose by %d, want 1", step, tc.builds, got)
				}
				got, err := sys.AccessibleIDs()
				if err != nil {
					t.Fatal(err)
				}
				want, err := pol.Semantics(sys.Document())
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("step %d: %d accessible ids, oracle %d", step, len(got), len(want))
				}
			}
		})
	}
}
