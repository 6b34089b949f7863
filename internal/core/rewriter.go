package core

import (
	"context"

	"xmlac/internal/obs"
	"xmlac/internal/policy"
	"xmlac/internal/store"
	"xmlac/internal/xmltree"
	"xmlac/internal/xpath"
)

// Rewriting enforcement: the user query is evaluated raw
// (Engine.RawQuery — no sign consultation) and each match is decided by
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
// the materialized paths exactly, since both go through store.Check. The
// bool reports whether the scope sets were a cache hit.
func (s *System) requestRewrite(ctx context.Context, q *xpath.Path, parent *obs.Span) (*RequestResult, bool, error) {
	sc, hit, err := s.scopes()
	if err != nil {
		return nil, hit, err
	}
	raw, err := s.engine.RawQuery(obs.ContextWithSpan(ctx, parent), q)
	if err != nil {
		return nil, hit, err
	}
	res, err := store.Check(parent, "rewrite", raw, s.engine.Relational(), store.Decision{
		Accessible: func(id int64, _ *xmltree.Node) bool { return s.rw.Accessible(sc.allow[id], sc.deny[id]) },
	})
	return res, hit, err
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
