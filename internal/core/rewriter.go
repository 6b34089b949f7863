package core

import (
	"context"
	"fmt"

	"xmlac/internal/obs"
	"xmlac/internal/policy"
	"xmlac/internal/store"
	"xmlac/internal/xpath"
)

// Rewriting enforcement: the user query is evaluated raw
// (store.RawQuerier — no sign consultation) and each match is decided by
// the Table 2 membership algebra over the policy's allow and deny scope
// unions, themselves evaluated over the unannotated store through the
// engine's EvalScope. Signs are never written and writes never
// re-annotate; the scope sets are part of the store version's snapshot,
// so a read-mostly workload pays the two scope evaluations once per write.

// NewRewriter compiles a read policy for rewriting enforcement.
func NewRewriter(p *policy.Policy) *xpath.Rewriter {
	rw := &xpath.Rewriter{
		DefaultAllow:  p.Default == policy.Allow,
		ConflictAllow: p.Conflict == policy.Allow,
	}
	for _, r := range p.Allows() {
		rw.Allow = append(rw.Allow, r.Resource)
	}
	for _, r := range p.Denies() {
		rw.Deny = append(rw.Deny, r.Resource)
	}
	return rw
}

// scopeUnion folds rule resources into one engine set expression.
func scopeUnion(paths []*xpath.Path) *store.SetExpr {
	leaves := make([]*store.SetExpr, len(paths))
	for i, p := range paths {
		leaves[i] = store.PathLeaf(p)
	}
	return store.Combine(store.OpUnion, leaves...)
}

// scopeSets are the policy's allow and deny scope unions evaluated over
// one store version.
type scopeSets struct {
	allow, deny map[int64]bool
}

// scopes returns the scope sets of the current store version, evaluating
// them through the engine on first use; hit reports whether they were
// already built. Callers hold at least s.mu.RLock.
func (s *System) scopes() (*scopeSets, bool, error) {
	return s.snap.scopes.get(s.buildScopes)
}

func (s *System) buildScopes() (*scopeSets, error) {
	s.scopeRebuilds.Inc()
	allow, err := s.engine.EvalScope(scopeUnion(s.rw.Allow))
	if err != nil {
		return nil, err
	}
	deny, err := s.engine.EvalScope(scopeUnion(s.rw.Deny))
	if err != nil {
		return nil, err
	}
	return &scopeSets{allow: allow, deny: deny}, nil
}

// requestRewrite evaluates q raw and applies the all-or-nothing check
// against the membership algebra. Result shapes and denial texts mirror
// the materialized paths exactly: Nodes in evaluation order with a
// labeled first-denial on the tree store, deduplicated ascending IDs with
// an id-only denial on the relational ones. The bool reports whether the
// scope sets were a cache hit.
func (s *System) requestRewrite(ctx context.Context, q *xpath.Path, parent *obs.Span) (*RequestResult, bool, error) {
	raw, ok := s.engine.(store.RawQuerier)
	if !ok {
		return nil, false, fmt.Errorf("core: backend %s cannot evaluate unannotated queries", s.cfg.Backend)
	}
	sc, hit, err := s.scopes()
	if err != nil {
		return nil, hit, err
	}
	res, err := raw.RawQuery(obs.ContextWithSpan(ctx, parent), q)
	if err != nil {
		return nil, hit, err
	}
	sp := obs.Start(parent, "check-access")
	defer sp.Finish()
	sp.SetAttr("mode", "rewrite")
	if !s.engine.Relational() {
		for _, n := range res.Nodes {
			if !s.rw.Accessible(sc.allow[n.ID], sc.deny[n.ID]) {
				sp.SetAttr("outcome", "denied")
				return nil, hit, &DeniedError{ID: n.ID, Label: n.Label}
			}
		}
		sp.SetAttr("outcome", "granted")
		return res, hit, nil
	}
	for _, id := range res.IDs {
		if !s.rw.Accessible(sc.allow[id], sc.deny[id]) {
			sp.SetAttr("outcome", "denied")
			return nil, hit, &DeniedError{ID: id}
		}
	}
	sp.SetAttr("outcome", "granted")
	return res, hit, nil
}

// rewriteAccessibleIDs derives the accessible element set from the scope
// sets — the rewriting counterpart of reading materialized signs back,
// serving AccessibleIDs, Coverage and view export when no signs exist.
func (s *System) rewriteAccessibleIDs() (map[int64]bool, error) {
	sc, _, err := s.scopes()
	if err != nil {
		return nil, err
	}
	out := map[int64]bool{}
	for _, n := range s.Document().Elements() {
		if s.rw.Accessible(sc.allow[n.ID], sc.deny[n.ID]) {
			out[n.ID] = true
		}
	}
	return out, nil
}
