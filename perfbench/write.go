package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"xmlac"
	"xmlac/internal/bench"
	"xmlac/internal/obs"
	"xmlac/internal/xmark"
	"xmlac/internal/xpath"
)

// writeRun is the state a write workload threads through its closed loop:
// one client alternating an update call with a read.
type writeRun struct {
	in     *inputs
	rep    *report
	sys    *xmlac.System
	order  []int
	def    bool
	passes int // passes started; rotates the query mix over the states

	// The loop's clock runs from t0 and stops while a pass sets the
	// system up again (paused), so done holds completion times of the
	// measured work only.
	t0                  time.Time
	paused              time.Duration
	done                []float64 // every operation
	readDone, writeDone []float64

	readLat, writeLat          []float64 // milliseconds
	ops, failed, deny, writes  int64
	triggered, reannotated     int64
	prepare, apply, reannotate time.Duration
	matched                    int64 // the oracle's match count of every query read, summed
}

// reset clears the tallies between the untraced and the traced loop.
func (w *writeRun) reset() {
	w.readLat, w.writeLat = make([]float64, 0, 4096), make([]float64, 0, 4096)
	w.ops, w.failed, w.deny, w.writes, w.triggered, w.reannotated = 0, 0, 0, 0, 0, 0
	w.prepare, w.apply, w.reannotate = 0, 0, 0
	w.matched = 0
	w.done, w.readDone, w.writeDone = make([]float64, 0, 8192), make([]float64, 0, 4096), make([]float64, 0, 4096)
}

// finish records one completed operation on the loop's clock and returns
// its completion time.
func (w *writeRun) finish() float64 {
	w.ops++
	t := (time.Since(w.t0) - w.paused).Seconds()
	w.done = append(w.done, t)
	return t
}

// read sends query i of the mix and checks it against the oracle of the
// current document state. In the loop every read follows a write, so the
// query cache rebuilds its map first.
func (w *writeRun) read(orc *oracle, i int, rec *recorder) error {
	root := rec.root("op")
	t := time.Now()
	sp := rec.begin("xpath.parse", root)
	q, err := xmlac.ParseXPath(w.in.texts[i])
	rec.end(sp)
	if err != nil {
		return err
	}
	sp = rec.begin("core.request", root)
	res, err := w.sys.Request(q)
	rec.end(sp)
	w.readLat = append(w.readLat, float64(time.Since(t))/1e6)
	rec.end(root)
	w.readDone = append(w.readDone, w.finish())
	a, err := answerOf(res, err)
	if err != nil || !orc.check(i, a) {
		w.failed++
		if w.failed <= 5 {
			w.rep.note("read %s answered %+v (error %v), oracle %+v", w.in.texts[i], a, err, orc.want[i])
		}
	}
	if !a.grant {
		w.deny++
	}
	w.matched += int64(orc.want[i].n)
	if rec != nil {
		acc, err := buildCAM(rec, w.sys, w.def)
		if err != nil {
			return err
		}
		probe(rec, w.sys, acc, q)
	}
	return nil
}

// write runs one update call and tallies its report.
func (w *writeRun) write(name string, f func() (*xmlac.UpdateReport, error), rec *recorder) (*xmlac.UpdateReport, error) {
	root := rec.root("op")
	t := time.Now()
	sp := rec.begin(name, root)
	r, err := f()
	rec.end(sp)
	w.writeLat = append(w.writeLat, float64(time.Since(t))/1e6)
	rec.end(root)
	w.writeDone = append(w.writeDone, w.finish())
	w.writes++
	if err != nil {
		w.failed++
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	w.triggered += int64(len(r.Triggered))
	w.reannotated += int64(r.Stats.Updated + r.Stats.Reset)
	w.prepare += r.PrepareTime
	w.apply += r.UpdateTime
	w.reannotate += r.ReannotateTime
	return r, nil
}

// endToEnd stores the untraced loop's end-to-end metrics and runs the
// write self-check.
func (w *writeRun) endToEnd(elapsed time.Duration, rt0, rt1 runtimeSample) error {
	rep := w.rep
	rep.attempted, rep.failed = w.ops, w.failed
	rep.e2e("ops_per_s", "1/s", windowRate(w.done, elapsed.Seconds()))
	p50, p95 := latencySummary(rep, "read", w.readLat, w.readDone)
	rep.e2e("read_p50_ms", "ms", p50)
	rep.e2e("read_p95_ms", "ms", p95)
	wp50, wp95 := latencySummary(rep, "write", w.writeLat, w.writeDone)
	rep.note("write_p50_ms %.6g ms, write_p95_ms %.6g ms (update + re-annotation, %d writes)", wp50, wp95, w.writes)
	rep.e2e("allocs_per_op", "count", float64(rt1.mallocs-rt0.mallocs)/float64(w.ops))
	if w.reannotated == 0 {
		return errors.New("self-check: writes re-annotated 0 nodes; the workload must exercise re-annotation")
	}
	rep.note("%.2f rules triggered and %.1f nodes re-annotated per write, read deny fraction %.3f",
		float64(w.triggered)/float64(w.writes), float64(w.reannotated)/float64(w.writes),
		float64(w.deny)/float64(w.ops-w.writes))
	return nil
}

// layers stores the traced loop's ledger.
func (w *writeRun) layers(l *ledger, a, b snapshot, rt0, rt1 runtimeSample, untracedP50 float64) {
	rep := w.rep
	setupLayers(rep, l)
	requestLayers(rep, l, true)
	rep.layer("shred.translate_us", "us", l.mean("shred.translate", time.Microsecond))
	rep.layer("xpath.matched_per_op", "count", float64(w.matched)/float64(w.ops-w.writes))
	rep.layer("core.deny_frac", "ratio", float64(w.deny)/float64(w.ops-w.writes))
	h := counterDelta(a, b, "core_qcache_hits_total")
	m := counterDelta(a, b, "core_qcache_misses_total")
	rep.layer("core.qcache_hit_frac", "ratio", h/max(h+m, 1))
	rep.layer("core.insert_ms", "ms", l.mean("core.insert", time.Millisecond))
	rep.layer("core.delete_ms", "ms", l.mean("core.delete", time.Millisecond))
	perWrite := func(d time.Duration) float64 { return float64(d) / float64(w.writes) / 1e6 }
	rep.layer("core.prepare_ms", "ms", perWrite(w.prepare))
	rep.layer("core.apply_ms", "ms", perWrite(w.apply))
	rep.layer("core.reannotate_ms", "ms", perWrite(w.reannotate))
	rep.layer("core.triggered_per_write", "count", float64(w.triggered)/float64(w.writes))
	rep.layer("core.reannotated_per_write", "count", float64(w.reannotated)/float64(w.writes))
	sqlLayers(rep, a, b, "row", w.ops)
	rep.layer("core.rewrite_rebuilds", "count", counterDelta(a, b, "core_rewrite_scope_rebuilds_total"))
	runtimeLayers(rep, rt0, rt1, w.ops)
	tp50, _ := stretchQuantiles(w.readLat, w.readDone)
	rep.layer("bench.trace_overhead_frac", "ratio", tp50/untracedP50-1)
	absentLayers(rep, "the workload calls the library in-process, with no HTTP layer", httpLayerNames...)
	rep.note("sqldb.vector_rows_per_op: 0, the row engine has no vectorized executor; core.rewrite_rebuilds: 0, signs enforcement builds no rewrite scopes")
	rep.note("per read, the traced loop also times store.accessible_ids + cam.build (the CAM rebuild every read after a write pays) and the classify/eval/check probes")
	rep.note("shred.translate_us translates the policy's rule paths, as every re-annotation on the row store does; the reads go through the CAM and translate nothing")
}

// checkAccessible compares both accessible-id sets of the store with the
// oracle's and returns how many differ.
func (w *writeRun) checkAccessible(orc *oracle, state string) (int, error) {
	bad := 0
	for _, get := range []struct {
		name string
		f    func() (map[int64]bool, error)
	}{{"System.AccessibleIDs", w.sys.AccessibleIDs}, {"Engine.AccessibleIDs", w.sys.Engine().AccessibleIDs}} {
		ids, err := get.f()
		if err != nil {
			return bad, err
		}
		if !sameSet(ids, orc.accessible) {
			bad++
			w.rep.note("%s differs from the oracle in %s", get.name, state)
		}
	}
	return bad, nil
}

// verify applies the whole update sequence to the current system and checks
// every document state it passes through against that state's oracle: both
// accessible-id sets and every query of the mix.
func (w *writeRun) verify(states []*oracle, updates []*xpath.Path) error {
	for k := range states {
		if k > 0 {
			u := updates[k-1]
			if _, err := w.write("core.delete", func() (*xmlac.UpdateReport, error) {
				return w.sys.DeleteAndReannotate(u)
			}, nil); err != nil {
				return err
			}
		}
		state := fmt.Sprintf("state %d (after %d deletes)", k, k)
		bad, err := w.checkAccessible(states[k], state)
		if err != nil {
			return err
		}
		for i := range w.in.queries {
			if err := w.read(states[k], i, nil); err != nil {
				return err
			}
		}
		if bad+int(w.failed) != 0 {
			return fmt.Errorf("%s: %d accessible-id sets and %d answers differ from the oracle", state, bad, w.failed)
		}
	}
	return nil
}

func rowConfig(in *inputs, reg *obs.Registry) func() xmlac.Config {
	schema := xmark.Schema()
	return func() xmlac.Config {
		return xmlac.Config{Schema: schema, Policy: in.policy.Clone(), Backend: xmlac.BackendRow,
			Optimize: true, PushdownSigns: true, QueryCache: true, Metrics: reg}
	}
}

// deleteOracles applies the update sequence to a copy of the document and
// returns the oracle of every state: states[0] is the base document,
// states[k+1] the document after update k.
func deleteOracles(in *inputs, updates []*xpath.Path) ([]*oracle, error) {
	doc, err := in.parse()
	if err != nil {
		return nil, err
	}
	states := make([]*oracle, 0, len(updates)+1)
	for k := 0; ; k++ {
		orc, err := newOracle(in.policy, doc, in.queries)
		if err != nil {
			return nil, err
		}
		states = append(states, orc)
		if k == len(updates) {
			return states, nil
		}
		matches, err := xpath.Eval(updates[k], doc)
		if err != nil {
			return nil, err
		}
		for _, n := range matches {
			if doc.Contains(n) { // not already gone with an earlier match
				if err := doc.DeleteSubtree(n); err != nil {
					return nil, err
				}
			}
		}
	}
}

// runWriteRow: the paper's Fig. 12 update workload on the row store (its
// PostgreSQL setup) with sign pushdown and the CAM query cache, f=0.01,
// one client. A pass loads and annotates the document, then applies the
// delete updates of internal/bench in order, each with DeleteAndReannotate
// followed by one read; every read is the first after a write and
// rebuilds the CAM. Passes repeat until the time is up; each pass's
// set-up is one set-up sample and is left out of the measured time. The
// read after delete k of pass p is query (p+k) mod 55 of the client's
// order, so every state meets every query over 55 passes. Before the loop
// an unmeasured pass checks every state against the whole mix.
func runWriteRow(c runConfig) (*report, error) {
	const factor, setups = 0.01, 5
	in, err := makeInputs(c.seed, factor)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	updates := bench.Updates()
	rep.note("write-row: row store (postgres), signs + pushdown + CAM query cache, f=%g (%d elements), 1 closed-loop client, %d delete updates per pass, seed %d",
		factor, in.elements, len(updates), c.seed)
	t0 := time.Now()
	var rec *recorder
	if c.trace {
		rec = newRecorder(t0, 0)
	}
	reg := obs.NewRegistry()
	cfg := rowConfig(in, reg)
	sys, times, err := setUpMany(setups, in, cfg, rec)
	if err != nil {
		return nil, err
	}
	states, err := deleteOracles(in, updates)
	if err != nil {
		return nil, err
	}
	if g, d := states[0].mixShape(); g == 0 || d == 0 {
		return nil, fmt.Errorf("self-check: the query mix yields %d grants and %d denials; it needs both", g, d)
	}
	w := &writeRun{in: in, rep: rep, sys: sys, order: in.order(c.seed, 0), def: in.policy.Default == xmlac.Allow}
	w.reset()
	state := 0

	// pass applies the update sequence to a freshly set-up system, stopping
	// early at the deadline. Its set-up is a set-up sample and stops the
	// loop's clock.
	pass := func(deadline time.Time, rec *recorder) error {
		start := time.Now()
		sys, d, err := setUp(in, cfg(), rec)
		if err != nil {
			return err
		}
		times = append(times, d.Seconds())
		w.sys, state = sys, 0
		w.paused += time.Since(start)
		w.passes++
		for k, u := range updates {
			if time.Now().After(deadline) {
				break
			}
			if _, err := w.write("core.delete", func() (*xmlac.UpdateReport, error) {
				return w.sys.DeleteAndReannotate(u)
			}, rec); err != nil {
				return err
			}
			state = k + 1
			i := w.order[(w.passes+k)%len(w.order)]
			if err := w.read(states[state], i, rec); err != nil {
				return err
			}
		}
		return nil
	}
	loop := func(d time.Duration, rec *recorder) (time.Duration, error) {
		start := time.Now()
		deadline := start.Add(d)
		w.t0, w.paused = start, 0
		for time.Now().Before(deadline) {
			if err := pass(deadline, rec); err != nil {
				return 0, err
			}
		}
		return time.Since(start) - w.paused, nil
	}

	// Warm-up: check every state on the system set up last; then only the
	// final state's accessible set is needed.
	if err := w.verify(states, updates); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	for _, orc := range states[:len(updates)] {
		orc.accessible = nil
	}
	w.reset()
	measured := time.Duration(c.seconds * float64(time.Second))
	if c.trace {
		measured /= 2
	}
	rt0 := sampleRuntime()
	elapsed, err := loop(measured, nil)
	if err != nil {
		return nil, err
	}
	rt1 := sampleRuntime()
	if err := w.endToEnd(elapsed, rt0, rt1); err != nil {
		return nil, err
	}
	untracedP50, _ := stretchQuantiles(w.readLat, w.readDone)
	if c.trace {
		w.reset()
		snap0 := snapshotOf(reg)
		rtT0 := sampleRuntime()
		if _, err := loop(measured, rec); err != nil {
			return nil, err
		}
		rtT1 := sampleRuntime()
		snap1 := snapshotOf(reg)
		rep.attempted += w.ops
		rep.failed += w.failed
		if err := probeStore(rec, w.sys, rulePaths(in), 0); err != nil {
			return nil, err
		}
		w.layers(buildLedger(rec), snap0, snap1, rtT0, rtT1, untracedP50)
		absentLayers(rep, "write-row applies the paper's delete updates only", "core.insert_ms")
		if err := writeSpans(c.spanFile(), rec); err != nil {
			return nil, err
		}
		rep.note("spans written to %s", c.spanFile())
	}
	rep.e2e("setup_s", "s", median(times))
	rep.note("set-up: median of %d set-ups (ParseXML + New + Load + Annotate)", len(times))
	// Finish the interrupted pass outside the measured time, so that every
	// run ends in the same document state, then check the store against
	// the oracle and take the live heap there.
	for k := state; k < len(updates); k++ {
		if _, err := w.sys.DeleteAndReannotate(updates[k]); err != nil {
			return nil, err
		}
	}
	bad, err := w.checkAccessible(states[len(updates)], "the final state")
	if err != nil {
		return nil, err
	}
	rep.failed += int64(bad)
	w.reset() // drop the loop's samples before reading the heap
	rep.e2e("heap_mb", "MB", liveHeapMB())
	runtime.KeepAlive(w.sys)
	return rep, nil
}
