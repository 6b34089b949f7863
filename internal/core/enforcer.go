package core

import (
	"context"
	"encoding/json"
	"fmt"

	"xmlac/internal/obs"
	"xmlac/internal/xpath"
)

// Enforcement splits "what may the user see" (the Table 2 policy
// semantics) from "how is that decided at request time". The paper's
// system materializes the decision as '+'/'−' signs and checks requests
// against them (requestSigns); the query-rewriting literature (Fan et
// al.'s security views, Mahfoud–Imine's rewriting over recursive views)
// instead composes the policy into the query and evaluates it over the
// unannotated store (requestRewrite). The System owns locking, spans,
// metrics and auditing around both, and calls one of them with the read
// lock held.

// EnforceMode selects the enforcement strategy of a System or a single
// request.
type EnforceMode uint8

const (
	// EnforceAuto lets the planner decide per (policy, schema, backend):
	// signs where the materialized pipeline applies, rewriting where it
	// cannot (recursive schemas).
	EnforceAuto EnforceMode = iota
	// EnforceSigns is the paper's materialized pipeline: annotation
	// queries write signs, requests check them, writes re-annotate.
	EnforceSigns
	// EnforceRewrite composes the policy into the request and evaluates
	// over the unannotated store: reads never need annotation and writes
	// never re-annotate.
	EnforceRewrite
)

// String names the mode as the -enforce flag and the audit trail spell
// it.
func (m EnforceMode) String() string {
	switch m {
	case EnforceSigns:
		return "signs"
	case EnforceRewrite:
		return "rewrite"
	default:
		return "auto"
	}
}

// MarshalJSON renders the mode name, keeping /plan output readable.
func (m EnforceMode) MarshalJSON() ([]byte, error) { return json.Marshal(m.String()) }

// UnmarshalJSON accepts the mode name, so stats blocks round-trip.
func (m *EnforceMode) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	v, err := ParseEnforceMode(s)
	if err != nil {
		return err
	}
	*m = v
	return nil
}

// ParseEnforceMode parses "auto", "signs" or "rewrite".
func ParseEnforceMode(s string) (EnforceMode, error) {
	switch s {
	case "", "auto":
		return EnforceAuto, nil
	case "signs":
		return EnforceSigns, nil
	case "rewrite":
		return EnforceRewrite, nil
	}
	return EnforceAuto, fmt.Errorf("core: unknown enforcement mode %q (want auto, signs or rewrite)", s)
}

// requestSigns is the paper's pipeline: the engine checks the query
// against its materialized signs (or, with the query cache on, against the
// CAM built from them). The bool reports a query-cache hit.
func (s *System) requestSigns(ctx context.Context, q *xpath.Path, sp *obs.Span) (*RequestResult, bool, error) {
	if s.cfg.QueryCache {
		return s.requestCached(q, sp)
	}
	res, err := s.engine.Request(obs.ContextWithSpan(ctx, sp), q)
	return res, false, err
}
