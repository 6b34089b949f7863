package core

import (
	"xmlac/internal/cam"
	"xmlac/internal/obs"
	"xmlac/internal/policy"
	"xmlac/internal/store"
	"xmlac/internal/xmltree"
	"xmlac/internal/xpath"
)

// CAM-backed accessibility cache. The paper's Section 6 discusses the
// compressed accessibility map of [26] as an alternative *storage* scheme
// for annotations; internal/cam implements it, but until now only the
// ablation benchmarks and the multi-user layer used it. The query cache
// puts it on the serving path: after annotation, the store's signs are
// materialized once into a compressed map, and subsequent requests answer
// their access checks from memory — no SQL probes on the relational
// backends, no sign-walk on the native one. The map is one part of the
// store version's snapshot, so every load, (re-)annotation and update
// drops it.

// cachedCAM returns the accessibility map of the current store version,
// building it on first use, and reports whether the call found it already
// built (a hit). Callers hold at least s.mu.RLock, so the snapshot and the
// underlying store are stable.
func (s *System) cachedCAM() (*cam.Map, bool, error) {
	acc, hit, err := s.snap.cam.get(s.buildCAM)
	if hit {
		s.qcHits.Inc()
	} else {
		s.qcMisses.Inc()
	}
	return acc, hit, err
}

// buildCAM materializes the store's signs as a compressed map.
func (s *System) buildCAM() (*cam.Map, error) {
	def := s.policy.Default == policy.Allow
	if !s.engine.Relational() {
		return cam.FromSigns(s.Document(), def), nil
	}
	accessible, err := s.engine.AccessibleIDs()
	if err != nil {
		return nil, err
	}
	return cam.Build(s.Document(), accessible, def), nil
}

// requestCached answers a request from the accessibility cache: the query
// is evaluated on the in-memory tree and every matched node is checked
// against the compressed map. The result (grant-or-deny, returned ids,
// error text) is identical to the configured backend's uncached path.
// The bool reports whether the map was a cache hit (for the audit trail).
func (s *System) requestCached(q *xpath.Path, parent *obs.Span) (*RequestResult, bool, error) {
	acc, hit, err := s.cachedCAM()
	if err != nil {
		return nil, hit, err
	}
	sp := obs.Start(parent, "eval-query")
	nodes, err := xpath.Eval(q, s.Document())
	sp.SetAttr("matched", len(nodes)).Finish()
	if err != nil {
		return nil, hit, err
	}
	res, err := store.Check(parent, "qcache", &RequestResult{Nodes: nodes}, s.engine.Relational(), store.Decision{
		Accessible: func(_ int64, n *xmltree.Node) bool { return acc.Accessible(n) },
	})
	return res, hit, err
}
