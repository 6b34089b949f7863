package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"xmlac/internal/dtd"
	"xmlac/internal/pattern"
	"xmlac/internal/policy"
	"xmlac/internal/xpath"
)

// The enforcement planner decides, once per System, which strategy
// serves a (policy, schema, backend) triple — and, per query, whether
// the decision is already determined statically. The materialized
// pipeline needs schema-aware path expansion for its re-annotation
// triggers, which never terminates on recursive DTDs; the rewriter
// evaluates unannotated queries (Engine.RawQuery), which every engine
// serves. EnforceAuto picks signs wherever the paper's pipeline applies
// and falls back to rewriting where it cannot.

// EnforcePlan is the planner's verdict for one System.
type EnforcePlan struct {
	// Requested is the configured mode; Mode the resolved strategy.
	Requested EnforceMode `json:"requested"`
	Mode      EnforceMode `json:"mode"`
	// Reason explains the decision in one sentence.
	Reason string `json:"reason"`
	// Recursive reports a recursive schema (with the witness cycle) —
	// the condition that forces rewriting.
	Recursive bool     `json:"recursive"`
	Cycle     []string `json:"cycle,omitempty"`
	// ValueDependent reports value comparisons in rule predicates: scope
	// membership then depends on document values, which both strategies
	// handle by evaluation (signs at annotation time, rewriting at scope
	// time) but the static checker refuses to reason about.
	ValueDependent bool `json:"value_dependent"`
}

// planEnforcement resolves the configured mode against the policy and
// the schema.
func planEnforcement(requested EnforceMode, pol *policy.Policy, schema *dtd.Schema) (EnforcePlan, error) {
	shape := policyShape(pol)
	an := pattern.Analyze(shape, schema)
	plan := EnforcePlan{
		Requested:      requested,
		Recursive:      an.Recursive,
		Cycle:          an.Cycle,
		ValueDependent: an.ValueDependent,
	}
	switch requested {
	case EnforceSigns:
		if an.Recursive {
			return plan, fmt.Errorf("core: signs enforcement cannot serve recursive schema (cycle %v): schema-aware expansion does not terminate; use -enforce rewrite or auto", an.Cycle)
		}
		plan.Mode, plan.Reason = EnforceSigns, "signs requested"
	case EnforceRewrite:
		plan.Mode, plan.Reason = EnforceRewrite, "rewrite requested"
	default:
		if an.Recursive {
			plan.Mode = EnforceRewrite
			plan.Reason = fmt.Sprintf("recursive schema (cycle %v): sign expansion does not terminate, rewriting does", an.Cycle)
		} else {
			plan.Mode = EnforceSigns
			plan.Reason = "non-recursive schema: materialized signs serve reads at annotation cost paid once"
		}
	}
	return plan, nil
}

// policyShape projects the read policy into the static checker's view.
func policyShape(p *policy.Policy) pattern.PolicyShape {
	ps := pattern.PolicyShape{
		DefaultAllow:  p.Default == policy.Allow,
		ConflictAllow: p.Conflict == policy.Allow,
	}
	for _, r := range p.Allows() {
		ps.Allow = append(ps.Allow, r.Resource)
	}
	for _, r := range p.Denies() {
		ps.Deny = append(ps.Deny, r.Resource)
	}
	return ps
}

// staticMemoCap bounds the per-System verdict memo; distinct query texts
// beyond it are classified but not remembered.
const staticMemoCap = 1024

// staticChecker memoizes per-query static verdicts and counts them for
// the planner-decision coverage report.
type staticChecker struct {
	shape  pattern.PolicyShape
	schema *dtd.Schema

	mu   sync.Mutex
	memo map[string]pattern.StaticVerdict

	grants, denies, unknowns atomic.Uint64
}

func newStaticChecker(pol *policy.Policy, schema *dtd.Schema) *staticChecker {
	return &staticChecker{
		shape:  policyShape(pol),
		schema: schema,
		memo:   make(map[string]pattern.StaticVerdict),
	}
}

// classify returns the memoized static verdict for q.
func (c *staticChecker) classify(q *xpath.Path) pattern.StaticVerdict {
	key := q.String()
	c.mu.Lock()
	v, ok := c.memo[key]
	c.mu.Unlock()
	if !ok {
		v = pattern.ClassifyQuery(q, c.shape, c.schema)
		c.mu.Lock()
		if len(c.memo) < staticMemoCap {
			c.memo[key] = v
		}
		c.mu.Unlock()
	}
	switch v {
	case pattern.StaticGrant:
		c.grants.Add(1)
	case pattern.StaticDeny:
		c.denies.Add(1)
	default:
		c.unknowns.Add(1)
	}
	return v
}

// EnforcementStats is the planner-decision coverage block of /coverage:
// the resolved plan, the live mode, and how requests were classified and
// served.
type EnforcementStats struct {
	Plan       EnforcePlan `json:"plan"`
	ActiveMode EnforceMode `json:"active_mode"`
	// StaticGrants/StaticDenials/StaticUnknown count the static
	// classifications of served requests; a StaticDenials request never
	// touched a store.
	StaticGrants  uint64 `json:"static_grants"`
	StaticDenials uint64 `json:"static_denials"`
	StaticUnknown uint64 `json:"static_unknown"`
	// Requests counts decisions by "mode/outcome" (signs/grant,
	// rewrite/deny, static-deny/deny, ...).
	Requests map[string]uint64 `json:"requests"`
}

// enforcement-counter indexes: modes × outcomes, mirrored by the
// core_enforcer_requests_total{mode,outcome} metric series.
const (
	encSigns = iota
	encRewrite
	encStatic
	encModes
)

var encModeNames = [encModes]string{"signs", "rewrite", "static-deny"}
var encOutcomeNames = [3]string{"grant", "deny", "error"}

// EnforcementStats reports the planner-decision coverage of this System.
func (s *System) EnforcementStats() EnforcementStats {
	st := EnforcementStats{
		Plan:          s.plan,
		ActiveMode:    s.ActiveMode(),
		StaticGrants:  s.static.grants.Load(),
		StaticDenials: s.static.denies.Load(),
		StaticUnknown: s.static.unknowns.Load(),
		Requests:      map[string]uint64{},
	}
	for m := 0; m < encModes; m++ {
		for o := 0; o < 3; o++ {
			if n := s.enfCounts[m][o].Load(); n > 0 {
				st.Requests[encModeNames[m]+"/"+encOutcomeNames[o]] = n
			}
		}
	}
	return st
}
