package nativedb

import (
	"xmlac/internal/obs"
	"xmlac/internal/xmltree"
	"xmlac/internal/xpath"
)

// Per-query instrumentation for the native store: how many queries ran,
// how many tree nodes each evaluation examined and matched, and how many
// signs were written. Off until SetMetrics attaches a registry; Run then
// evaluates with an xpath.EvalStats counter attached.

// storeMetrics caches the store's metric handles. Each series feeds the
// backend-neutral store_* name with the engine="native" label.
type storeMetrics struct {
	queries   *obs.Counter
	visited   *obs.Counter
	matched   *obs.Counter
	annotated *obs.Counter
}

// SetMetrics attaches a metrics registry to the store. Query execution
// then feeds the shared store_* counters (labeled engine="native"). nil
// detaches.
func (s *Store) SetMetrics(r *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r == nil {
		s.m = nil
		return
	}
	s.m = &storeMetrics{
		queries:   r.Counter(`store_queries_total{engine="native"}`),
		visited:   r.Counter(`store_rows_scanned_total{engine="native"}`),
		matched:   r.Counter(`store_rows_matched_total{engine="native"}`),
		annotated: r.Counter(`store_signs_written_total{engine="native"}`),
	}
}

// metrics returns the current handles under the store's read lock.
func (s *Store) metrics() *storeMetrics {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m
}

// EvalSetStats is EvalSet with an optional work counter (see
// xpath.EvalStats); a nil counter makes it identical to EvalSet.
func EvalSetStats(e *SetExpr, doc *xmltree.Document, st *xpath.EvalStats) ([]*xmltree.Node, error) {
	set, err := evalSetStats(e, doc, st)
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
