package sqldb

import (
	"fmt"
	"io"
	"strings"
	"time"

	"xmlac/internal/obs"
)

// Per-statement instrumentation: parse/plan/exec phase timings, operator
// row counters, a threshold-based slow-query log, and the EXPLAIN
// statement that surfaces the greedy planner's decisions. All of it is
// off until SetMetrics/SetSlowQueryLog are called; the instrumented paths
// pay only nil checks otherwise.

// dbMetrics caches the engine's metric handles so the per-statement hot
// path does not hit the registry's map. The cross-engine series
// (statements, rows) feed the backend-neutral store_* names with an
// inline engine label.
type dbMetrics struct {
	statements      *obs.Counter
	rowsReturned    *obs.Counter
	rowsScanned     *obs.Counter
	joinTuples      *obs.Counter
	slowQueries     *obs.Counter
	planCacheHits   *obs.Counter
	planCacheMisses *obs.Counter
	planCacheSize   *obs.Gauge
	parseSeconds    *obs.Histogram
	planSeconds     *obs.Histogram
	execSeconds     *obs.Histogram

	// Vectorized-executor series (vector.go): batches and rows processed
	// by vectorized operators. Zero on the row reference executor.
	vectorBatches *obs.Counter
	vectorRows    *obs.Counter
}

// engineLabel is the store_* engine label value ("row", "column" or
// "vector").
func (db *Database) engineLabel() string {
	switch db.engine {
	case EngineColumn:
		return "column"
	case EngineColumnVector:
		return "vector"
	default:
		return "row"
	}
}

// SetMetrics attaches a metrics registry to the database. Statement
// execution then feeds the shared store_* counters (labeled by engine)
// and the histograms. nil detaches.
func (db *Database) SetMetrics(r *obs.Registry) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if r == nil {
		db.m = nil
		return
	}
	lbl := db.engineLabel()
	db.m = &dbMetrics{
		statements:      r.Counter(fmt.Sprintf("store_queries_total{engine=%q}", lbl)),
		rowsReturned:    r.Counter(fmt.Sprintf("store_rows_matched_total{engine=%q}", lbl)),
		rowsScanned:     r.Counter(fmt.Sprintf("store_rows_scanned_total{engine=%q}", lbl)),
		joinTuples:      r.Counter("sqldb_join_tuples_total"),
		slowQueries:     r.Counter("sqldb_slow_queries_total"),
		planCacheHits:   r.Counter("sqldb_plan_cache_hits_total"),
		planCacheMisses: r.Counter("sqldb_plan_cache_misses_total"),
		planCacheSize:   r.Gauge("sqldb_plan_cache_size"),
		parseSeconds:    r.Histogram("sqldb_parse_seconds"),
		planSeconds:     r.Histogram("sqldb_plan_seconds"),
		execSeconds:     r.Histogram("sqldb_exec_seconds"),
		vectorBatches:   r.Counter(fmt.Sprintf("store_vector_batches_total{engine=%q}", lbl)),
		vectorRows:      r.Counter(fmt.Sprintf("store_vector_rows_total{engine=%q}", lbl)),
	}
}

// SetSlowQueryLog enables the slow-query log: every statement whose
// parse+execute time reaches threshold writes one line to w. A nil
// writer or non-positive threshold disables it.
func (db *Database) SetSlowQueryLog(w io.Writer, threshold time.Duration) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if w == nil || threshold <= 0 {
		db.slowLog = nil
		db.slowThresh = 0
		return
	}
	db.slowLog = w
	db.slowThresh = threshold
}

// observeStatement records one executed statement's phase timings and, if
// it was slow, appends a slow-query log line:
//
//	slow-query dur=1.21ms parse=8µs exec=1.2ms rows=42 affected=0 stmt="SELECT …"
//
// The observer attachments arrive as the snapshot Exec took under the read
// lock, keeping this path race-free against SetMetrics/SetSlowQueryLog.
func (db *Database) observeStatement(m *dbMetrics, slowLog io.Writer, slowThresh time.Duration,
	src string, res *Result, parseD, execD time.Duration, err error) {
	if m != nil {
		m.statements.Inc()
		m.parseSeconds.ObserveDuration(parseD)
		m.execSeconds.ObserveDuration(execD)
		if res != nil {
			m.rowsReturned.Add(int64(len(res.Rows)))
		}
	}
	total := parseD + execD
	if slowLog == nil || total < slowThresh {
		return
	}
	if m != nil {
		m.slowQueries.Inc()
	}
	rows, affected := 0, 0
	if res != nil {
		rows, affected = len(res.Rows), res.Affected
	}
	status := ""
	if err != nil {
		status = " error=" + fmt.Sprintf("%q", err.Error())
	}
	fmt.Fprintf(slowLog, "slow-query dur=%v parse=%v exec=%v rows=%d affected=%d%s stmt=%q\n",
		total, parseD, execD, rows, affected, status, truncate(strings.Join(strings.Fields(src), " "), 200))
}

// ExplainStmt is EXPLAIN <statement>: execute the inner query with the
// planner's decision recorder attached and return the plan as rows of
// text. (The greedy planner chooses join orders from observed relation
// sizes at run time, so EXPLAIN here is an "explain analyze": the plan
// lines report the actual access paths and row counts.)
type ExplainStmt struct {
	Stmt Statement
}

func (*ExplainStmt) stmt() {}

// planRec records the planner's decisions while a query executes; nil
// recorders are no-ops, which is the non-EXPLAIN path.
type planRec struct {
	indent int
	lines  []string
}

func (r *planRec) linef(format string, args ...any) {
	if r == nil {
		return
	}
	r.lines = append(r.lines, strings.Repeat("  ", r.indent)+fmt.Sprintf(format, args...))
}

func (r *planRec) push() {
	if r != nil {
		r.indent++
	}
}

func (r *planRec) pop() {
	if r != nil {
		r.indent--
	}
}

// explain runs EXPLAIN for a parsed inner statement. SELECT queries execute
// for real (the greedy planner decides from observed sizes at run time);
// UPDATE and DELETE run as a dry run — the WHERE clause is evaluated to pick
// the access path and count matching rows, but nothing is mutated.
func (db *Database) explain(st *ExplainStmt) (*Result, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	rec := &planRec{}
	switch s := st.Stmt.(type) {
	case *Query:
		res, err := db.execQuery(s, rec)
		if err != nil {
			return nil, err
		}
		rec.linef("output: %d rows", len(res.Rows))
	case *UpdateStmt:
		t := db.tables[s.Table]
		if t == nil {
			return nil, fmt.Errorf("sqldb: unknown table %q", s.Table)
		}
		rids, desc, err := db.filterSingle(t, s.Where)
		if err != nil {
			return nil, err
		}
		rec.linef("update %s: %s → %d rows (dry run)", s.Table, desc, len(rids))
	case *DeleteStmt:
		t := db.tables[s.Table]
		if t == nil {
			return nil, fmt.Errorf("sqldb: unknown table %q", s.Table)
		}
		rids, desc, err := db.filterSingle(t, s.Where)
		if err != nil {
			return nil, err
		}
		rec.linef("delete %s: %s → %d rows (dry run)", s.Table, desc, len(rids))
	default:
		return nil, fmt.Errorf("sqldb: EXPLAIN supports SELECT, UPDATE and DELETE, not %T", st.Stmt)
	}
	out := &Result{Columns: []string{"plan"}}
	for _, l := range rec.lines {
		out.Rows = append(out.Rows, []Value{NewText(l)})
	}
	return out, nil
}

// predNames renders a predicate list for plan lines.
func predNames(on []*planPred) string {
	parts := make([]string, len(on))
	for i, pp := range on {
		parts[i] = pp.src.String()
	}
	return strings.Join(parts, " and ")
}
