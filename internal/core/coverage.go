package core

import (
	"fmt"

	"xmlac/internal/observatory"
	"xmlac/internal/policy"
	"xmlac/internal/xmltree"
)

// Policy coverage analytics: the attribution map already knows, per node,
// which rules matched; replaying the Table 2 conflict resolution over
// every element node turns that into per-rule fire counts — which rules
// decide, which only ever lose, and which never match at all. The
// never-firing case is Cheney's static-enforceability question answered
// dynamically: a rule that matches no node of the loaded document cannot
// influence any decision until the document changes.

// coverageTally folds one document's decisions into a coverage report for
// pol. byID maps node id -> matching rule indices (policy order).
func coverageTally(pol *policy.Policy, elements []*xmltree.Node, byID map[int64][]int32, removed []policy.Rule, members int) *observatory.CoverageReport {
	rep := &observatory.CoverageReport{
		Semantics: semanticsLabel(pol),
		Members:   members,
		Nodes:     len(elements),
	}
	for i, r := range pol.Rules {
		rep.Rules = append(rep.Rules, observatory.RuleCoverage{
			Index:  i,
			Name:   ruleLabel(i, r),
			Effect: r.Effect.String(),
		})
	}
	for _, n := range elements {
		matched := byID[n.ID]
		deciding, also, losing, accessible := decide(pol, matched)
		if accessible {
			rep.AllowedNodes++
		} else {
			rep.DeniedNodes++
		}
		if deciding.Index < 0 {
			rep.DefaultDecided++
			continue
		}
		rc := &rep.Rules[deciding.Index]
		rc.Matched++
		rc.Deciding++
		for _, ref := range also {
			rep.Rules[ref.Index].Matched++
			rep.Rules[ref.Index].CoMatched++
		}
		for _, ref := range losing {
			rep.Rules[ref.Index].Matched++
			rep.Rules[ref.Index].Losing++
		}
	}
	for _, r := range removed {
		name := r.Name
		if name == "" {
			name = r.Resource.String()
		}
		rep.RemovedRules = append(rep.RemovedRules, name)
	}
	rep.Finish()
	return rep
}

// semanticsLabel renders a policy's (default, conflict-resolution) pair,
// e.g. "ds=-,cr=-".
func semanticsLabel(pol *policy.Policy) string {
	return "ds=" + pol.Default.String() + ",cr=" + pol.Conflict.String()
}

// PolicyCoverage joins the loaded policy against the annotated document:
// per-rule decide/co-match/lose counts, dead and always-losing rules,
// the allow/deny node mix, and the rules the optimizer removed before
// annotation. It reuses the per-version attribution cache that backs Why,
// so repeated calls between updates cost one pass over the element list.
func (s *System) PolicyCoverage() (*observatory.CoverageReport, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.loaded {
		return nil, fmt.Errorf("core: no document loaded")
	}
	byID, err := s.attributionLocked()
	if err != nil {
		return nil, err
	}
	return coverageTally(s.policy, s.Document().Elements(), byID, s.removed, 1), nil
}

// CoverageByCohort computes one coverage report per policy-equivalence
// cohort (keyed by cohort id, Members set to the cohort's refcount) —
// the MultiUser rollup of PolicyCoverage. Aggregate across semantics
// with observatory.RollupCoverage.
func (m *MultiUser) CoverageByCohort() (map[string]*observatory.CoverageReport, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	elements := m.doc.Elements()
	out := make(map[string]*observatory.CoverageReport, len(m.cohorts))
	for _, c := range m.cohorts {
		byID, err := ruleMatches(c.pol, m.doc, nil)
		if err != nil {
			return nil, fmt.Errorf("core: coverage of cohort %s: %w", c.id(), err)
		}
		out[c.id()] = coverageTally(c.pol, elements, byID, nil, c.refs)
	}
	return out, nil
}
