package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"xmlac"
	"xmlac/internal/cam"
	"xmlac/internal/obs"
	"xmlac/internal/shred"
	"xmlac/internal/xmark"
	"xmlac/internal/xpath"
)

// setUp takes the workload's document bytes to the first answerable
// request: ParseXML, New, Load and, unless the configuration enforces by
// rewriting, which uses no signs, Annotate. Each call is a span under one
// "setup" root.
func setUp(in *inputs, cfg xmlac.Config, rec *recorder) (*xmlac.System, time.Duration, error) {
	root := rec.root("setup")
	start := time.Now()
	sp := rec.begin("xmltree.parse", root)
	doc, err := xmlac.ParseXML(bytes.NewReader(in.data))
	rec.end(sp)
	if err != nil {
		return nil, 0, err
	}
	sp = rec.begin("core.new", root)
	sys, err := xmlac.New(cfg)
	rec.end(sp)
	if err != nil {
		return nil, 0, err
	}
	sp = rec.begin("core.load", root)
	err = sys.Load(doc)
	rec.end(sp)
	if err != nil {
		return nil, 0, err
	}
	if cfg.Enforce != xmlac.EnforceRewrite {
		sp = rec.begin("core.annotate", root)
		_, err = sys.Annotate()
		rec.end(sp)
		if err != nil {
			return nil, 0, err
		}
	}
	d := time.Since(start)
	rec.end(root)
	return sys, d, nil
}

// setUpMany sets the system up n times from scratch and returns the last
// system with every set-up time, in seconds.
func setUpMany(n int, in *inputs, cfg func() xmlac.Config, rec *recorder) (*xmlac.System, []float64, error) {
	var sys *xmlac.System
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		sys = nil
		runtime.GC()
		var d time.Duration
		var err error
		sys, d, err = setUp(in, cfg(), rec)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, d.Seconds())
	}
	return sys, times, nil
}

// runtimeSample is a point-in-time reading of the Go runtime's counters.
type runtimeSample struct {
	mallocs, numGC  uint64
	gcCPU, totalCPU float64
}

var runtimeMetricNames = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func sampleRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := runtimeSample{mallocs: ms.Mallocs, numGC: uint64(ms.NumGC)}
	samples := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		s.totalCPU = samples[1].Value.Float64()
	}
	return s
}

// liveHeapMB forces a collection and reports the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runtimeLayers stores the runtime ledger entries for one measured window.
func runtimeLayers(rep *report, a, b runtimeSample, ops int64) {
	frac := 0.0
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		frac = (b.gcCPU - a.gcCPU) / cpu
	}
	rep.layer("runtime.gc_cpu_frac", "ratio", frac)
	rep.layer("runtime.gc_per_kop", "1/kop", float64(b.numGC-a.numGC)*1000/float64(ops))
}

// snapshot is the part of a metrics registry the ledger reads: counters,
// and histogram counts, sums and quantiles. It decodes the JSON form of
// the server's /metrics as well.
type snapshot struct {
	Counters   map[string]int64     `json:"counters"`
	Histograms map[string]histogram `json:"histograms"`
}

type histogram struct {
	Count   uint64   `json:"count"`
	Sum     float64  `json:"sum"`
	Buckets []bucket `json:"buckets"`
}

// bucket is one cumulative histogram bucket; the JSON exposition writes
// its upper bound as a string so that "+Inf" survives.
type bucket struct {
	Le    float64
	Count uint64
}

func (b *bucket) UnmarshalJSON(data []byte) error {
	var raw struct {
		Le    json.RawMessage `json:"le"`
		Count uint64          `json:"count"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	le := strings.Trim(string(raw.Le), `"`)
	v, err := strconv.ParseFloat(le, 64)
	if err != nil {
		return fmt.Errorf("bucket bound %s: %w", raw.Le, err)
	}
	b.Le, b.Count = v, raw.Count
	return nil
}

// snapshotOf reads an in-process registry.
func snapshotOf(reg *obs.Registry) snapshot {
	s := reg.Snapshot()
	out := snapshot{Counters: s.Counters, Histograms: map[string]histogram{}}
	for name, h := range s.Histograms {
		bs := make([]bucket, len(h.Buckets))
		for i, b := range h.Buckets {
			bs[i] = bucket{Le: b.UpperBound, Count: b.Count}
		}
		out.Histograms[name] = histogram{Count: h.Count, Sum: h.Sum, Buckets: bs}
	}
	return out
}

// deltaQuantile is the p-quantile of the observations a histogram gained
// between two snapshots, interpolated within buckets as the registry's own
// quantiles are.
func deltaQuantile(a, b histogram, p float64) float64 {
	d := obs.HistogramSnapshot{Count: b.Count - a.Count}
	for i, bk := range b.Buckets {
		n := bk.Count
		if i < len(a.Buckets) {
			n -= a.Buckets[i].Count
		}
		d.Buckets = append(d.Buckets, obs.BucketCount{UpperBound: bk.Le, Count: n})
	}
	return d.Quantile(p)
}

// counterDelta reads one registry counter's change between two snapshots.
func counterDelta(a, b snapshot, name string) float64 {
	return float64(b.Counters[name] - a.Counters[name])
}

// sqlLayers stores the sqldb ledger entries from registry deltas.
func sqlLayers(rep *report, a, b snapshot, engine string, ops int64) {
	per := func(name string) float64 { return counterDelta(a, b, name) / float64(ops) }
	rep.layer("sqldb.statements_per_op", "count", per(fmt.Sprintf("store_queries_total{engine=%q}", engine)))
	rep.layer("sqldb.rows_scanned_per_op", "count", per(fmt.Sprintf("store_rows_scanned_total{engine=%q}", engine)))
	rep.layer("sqldb.vector_rows_per_op", "count", per(fmt.Sprintf("store_vector_rows_total{engine=%q}", engine)))
	hits := counterDelta(a, b, "sqldb_plan_cache_hits_total")
	misses := counterDelta(a, b, "sqldb_plan_cache_misses_total")
	frac := 0.0
	if hits+misses > 0 {
		frac = hits / (hits + misses)
	}
	rep.layer("sqldb.plan_cache_hit_frac", "ratio", frac)
}

// answerOf turns a System.Request outcome into an oracle-comparable answer.
func answerOf(res *xmlac.RequestResult, err error) (answer, error) {
	if errors.Is(err, xmlac.ErrAccessDenied) {
		return answer{}, nil
	}
	if err != nil {
		return answer{}, err
	}
	a := answer{grant: true, n: res.Checked}
	if len(res.Nodes) > 0 {
		a.n = len(res.Nodes)
		for _, n := range res.Nodes {
			a.idSum += n.ID
		}
	} else {
		for _, id := range res.IDs {
			a.idSum += id
		}
	}
	return a, nil
}

// probe times the layer functions a request uses, called from outside on
// the system's current state: ClassifyQuery, xpath.Eval on the document
// and the CAM check over the matched nodes.
func probe(rec *recorder, sys *xmlac.System, acc *cam.Map, q *xpath.Path) {
	root := rec.root("probe")
	sp := rec.begin("pattern.classify", root)
	sys.ClassifyQuery(q)
	rec.end(sp)
	sp = rec.begin("xpath.eval", root)
	nodes, _ := xpath.Eval(q, sys.Document())
	rec.end(sp)
	// Like the query cache's check: the native store stops at the first
	// inaccessible node, the relational stores check every match.
	stopAtDeny := !sys.Engine().Relational()
	sp = rec.begin("cam.check", root)
	for _, n := range nodes {
		if !acc.Accessible(n) && stopAtDeny {
			break
		}
	}
	rec.end(sp)
	rec.end(root)
}

// probeStore times the store-side layer functions: shred.Translate of each
// path against the XMark mapping, and reps scans of the store's accessible
// ids.
func probeStore(rec *recorder, sys *xmlac.System, paths []*xpath.Path, reps int) error {
	m, err := shred.BuildMapping(xmark.Schema())
	if err != nil {
		return err
	}
	for _, q := range paths {
		root := rec.root("probe")
		sp := rec.begin("shred.translate", root)
		_, err := shred.Translate(m, q)
		rec.end(sp)
		rec.end(root)
		if err != nil {
			return fmt.Errorf("translate %s: %w", q, err)
		}
	}
	for i := 0; i < reps; i++ {
		root := rec.root("probe")
		sp := rec.begin("store.accessible_ids", root)
		_, err := sys.Engine().AccessibleIDs()
		rec.end(sp)
		rec.end(root)
		if err != nil {
			return err
		}
	}
	return nil
}

// rulePaths are the resource paths of the workload's policy rules: what
// re-annotation on a relational store translates to SQL.
func rulePaths(in *inputs) []*xpath.Path {
	out := make([]*xpath.Path, len(in.policy.Rules))
	for i, r := range in.policy.Rules {
		out[i] = r.Resource
	}
	return out
}

// buildCAM rebuilds the compressed accessibility map from the store's
// accessible ids, as the query cache does after a write.
func buildCAM(rec *recorder, sys *xmlac.System, def bool) (*cam.Map, error) {
	root := rec.root("probe")
	sp := rec.begin("store.accessible_ids", root)
	ids, err := sys.Engine().AccessibleIDs()
	rec.end(sp)
	if err != nil {
		rec.end(root)
		return nil, err
	}
	sp = rec.begin("cam.build", root)
	acc := cam.Build(sys.Document(), ids, def)
	rec.end(sp)
	rec.end(root)
	return acc, nil
}

// requestLayers stores the read-path ledger entries shared by the
// in-process workloads. core.other_us is what the request spends outside
// the probed layers: dispatch, locks and bookkeeping. When every request
// rebuilds the CAM (coldCAM), the rebuild's store scan and build count as
// probed layers too.
func requestLayers(rep *report, l *ledger, coldCAM bool) {
	rep.layer("xpath.parse_us", "us", l.mean("xpath.parse", time.Microsecond))
	rep.layer("pattern.classify_us", "us", l.mean("pattern.classify", time.Microsecond))
	rep.layer("xpath.eval_us", "us", l.mean("xpath.eval", time.Microsecond))
	rep.layer("cam.check_us", "us", l.mean("cam.check", time.Microsecond))
	rep.layer("cam.build_ms", "ms", l.mean("cam.build", time.Millisecond))
	rep.layer("store.accessible_ids_ms", "ms", l.mean("store.accessible_ids", time.Millisecond))
	req := l.mean("core.request", time.Microsecond)
	rep.layer("core.request_us", "us", req)
	other := req - l.mean("pattern.classify", time.Microsecond) -
		l.mean("xpath.eval", time.Microsecond) - l.mean("cam.check", time.Microsecond)
	if coldCAM {
		other -= l.mean("store.accessible_ids", time.Microsecond) + l.mean("cam.build", time.Microsecond)
	}
	rep.layer("core.other_us", "us", other)
}

// setupLayers stores the set-up ledger entries.
func setupLayers(rep *report, l *ledger) {
	rep.layer("xmltree.parse_ms", "ms", l.mean("xmltree.parse", time.Millisecond))
	rep.layer("core.load_ms", "ms", l.mean("core.load", time.Millisecond))
	rep.layer("core.annotate_ms", "ms", l.mean("core.annotate", time.Millisecond))
}

// absentLayers reports zero for ledger entries whose layer the workload
// never calls, and says why.
func absentLayers(rep *report, why string, names ...string) {
	for _, n := range names {
		rep.layer(n, unitOf(n), 0)
	}
	rep.note("%v: 0, %s", names, why)
}

func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_frac"):
		return "ratio"
	default:
		return "count"
	}
}

var writeLayerNames = []string{
	"core.insert_ms", "core.delete_ms", "core.prepare_ms", "core.apply_ms", "core.reannotate_ms",
	"core.triggered_per_write", "core.reannotated_per_write",
}

var httpLayerNames = []string{"http.server_p50_ms", "http.server_p99_ms", "http.client_gap_ms"}

// ---- read-native ----

// runReadNative: native store, signs plus the CAM query cache, f=0.05, two
// closed-loop clients sending query text through ParseXPath and Request.
func runReadNative(c runConfig) (*report, error) {
	const factor, clients, setups = 0.05, 2, 13
	in, err := makeInputs(c.seed, factor)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	rep.note("read-native: native store, signs + CAM query cache, f=%g (%d elements), %d closed-loop clients, seed %d",
		factor, in.elements, clients, c.seed)
	schema := xmark.Schema()
	reg := obs.NewRegistry()
	cfg := func() xmlac.Config {
		return xmlac.Config{Schema: schema, Policy: in.policy.Clone(), Backend: xmlac.BackendNative,
			Optimize: true, QueryCache: true, Metrics: reg}
	}
	t0 := time.Now()
	var setupRec *recorder
	if c.trace {
		setupRec = newRecorder(t0, 0)
	}
	// Half the set-ups run before the loop and half after it, so that a
	// slow spell of the machine does not catch all of them.
	sys, times, err := setUpMany(setups/2+1, in, cfg, setupRec)
	if err != nil {
		return nil, err
	}

	doc, err := in.parse()
	if err != nil {
		return nil, err
	}
	orc, err := newOracle(in.policy, doc, in.queries)
	if err != nil {
		return nil, err
	}
	if g, d := orc.mixShape(); g == 0 || d == 0 {
		return nil, fmt.Errorf("self-check: the query mix yields %d grants and %d denials; it needs both", g, d)
	}
	orc.accessible = nil // not checked here; keep it out of heap_mb

	// Warm-up: two passes over the mix fill the CAM and every lazy memo.
	for pass := 0; pass < 2; pass++ {
		for i, q := range in.queries {
			res, err := sys.Request(q)
			a, err := answerOf(res, err)
			if err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", q, err)
			}
			if !orc.check(i, a) {
				return nil, fmt.Errorf("warm-up %s: answer differs from the oracle", q)
			}
		}
	}
	var acc *cam.Map // the probes' CAM, traced runs only
	if c.trace {
		acc = cam.FromSigns(sys.Document(), in.policy.Default == xmlac.Allow)
	}

	orders := make([][]int, clients)
	for k := range orders {
		orders[k] = in.order(c.seed, k)
	}
	read := func(i int, rec *recorder, root int) (answer, error) {
		sp := rec.begin("xpath.parse", root)
		q, err := xmlac.ParseXPath(in.texts[i])
		rec.end(sp)
		if err != nil {
			return answer{}, err
		}
		sp = rec.begin("core.request", root)
		res, err := sys.Request(q)
		rec.end(sp)
		return answerOf(res, err)
	}

	measured := time.Duration(c.seconds * float64(time.Second))
	if c.trace {
		measured /= 2 // half untraced (the overhead baseline), half traced
	}
	snap0 := snapshotOf(reg)
	rt0 := sampleRuntime()
	cs, elapsed := closedLoop(measured, orders, make([]*recorder, clients), orc, read, nil)
	rt1 := sampleRuntime()
	snap1 := snapshotOf(reg)
	t := sum(cs)
	cs = nil
	rep.attempted, rep.failed = t.ops, t.failed
	rep.e2e("ops_per_s", "1/s", windowRate(t.done, elapsed.Seconds()))
	p50, p95 := latencySummary(rep, "read", t.lat, t.done)
	rep.e2e("read_p50_ms", "ms", p50)
	rep.e2e("read_p95_ms", "ms", p95)
	rep.e2e("allocs_per_op", "count", float64(rt1.mallocs-rt0.mallocs)/float64(t.ops))
	ops, deny := t.ops, t.deny
	t = nil // keep the samples out of heap_mb
	hits := counterDelta(snap0, snap1, "core_qcache_hits_total")
	misses := counterDelta(snap0, snap1, "core_qcache_misses_total")
	if misses != 0 || hits == 0 {
		return nil, fmt.Errorf("self-check: query cache served %v hits and %v misses after warm-up; read-native must always hit", hits, misses)
	}
	hitFrac := hits / (hits + misses)

	if c.trace {
		recs := make([]*recorder, clients)
		for k := range recs {
			recs[k] = newRecorder(t0, uint64(k+1)<<40)
		}
		snapT0 := snapshotOf(reg)
		rtT0 := sampleRuntime()
		cs, _ := closedLoop(measured, orders, recs, orc, read, func(i int, rec *recorder) {
			probe(rec, sys, acc, in.queries[i])
		})
		rtT1 := sampleRuntime()
		snapT1 := snapshotOf(reg)
		tt := sum(cs)
		rep.attempted += tt.ops
		rep.failed += tt.failed
		probeRec := newRecorder(t0, 3<<40)
		if err := probeStore(probeRec, sys, nil, 3); err != nil {
			return nil, err
		}
		for i := 0; i < 3; i++ {
			if _, err := buildCAM(probeRec, sys, in.policy.Default == xmlac.Allow); err != nil {
				return nil, err
			}
		}
		all := append([]*recorder{setupRec, probeRec}, recs...)
		l := buildLedger(all...)
		setupLayers(rep, l)
		requestLayers(rep, l, false)
		rep.layer("xpath.matched_per_op", "count", float64(tt.matched)/float64(tt.ops))
		rep.layer("core.deny_frac", "ratio", float64(tt.deny)/float64(tt.ops))
		h := counterDelta(snapT0, snapT1, "core_qcache_hits_total")
		m := counterDelta(snapT0, snapT1, "core_qcache_misses_total")
		rep.layer("core.qcache_hit_frac", "ratio", h/max(h+m, 1))
		sqlLayers(rep, snapT0, snapT1, "native", tt.ops)
		rep.layer("core.rewrite_rebuilds", "count", counterDelta(snapT0, snapT1, "core_rewrite_scope_rebuilds_total"))
		runtimeLayers(rep, rtT0, rtT1, tt.ops)
		tp50, _ := stretchQuantiles(tt.lat, tt.done)
		rep.layer("bench.trace_overhead_frac", "ratio", tp50/p50-1)
		absentLayers(rep, "read-native never writes", writeLayerNames...)
		absentLayers(rep, "the native store answers from the tree and never translates to SQL", "shred.translate_us")
		absentLayers(rep, "read-native calls the library in-process, with no HTTP layer", httpLayerNames...)
		rep.note("sqldb.*: 0, the native store issues no SQL; core.rewrite_rebuilds: 0, signs enforcement builds no rewrite scopes")
		rep.note("cam.build_ms and store.accessible_ids_ms are probes after the loop (the warm loop never rebuilds the CAM)")
		if err := writeSpans(c.spanFile(), all...); err != nil {
			return nil, err
		}
		rep.note("spans written to %s", c.spanFile())
	}
	rep.note("read-native deny fraction %.3f, query-cache hit fraction %g", float64(deny)/float64(ops), hitFrac)
	rep.e2e("heap_mb", "MB", liveHeapMB())
	runtime.KeepAlive(sys)
	sys = nil
	_, more, err := setUpMany(setups-len(times), in, cfg, nil)
	if err != nil {
		return nil, err
	}
	times = append(times, more...)
	rep.e2e("setup_s", "s", median(times))
	rep.note("set-up: median of %d set-ups (ParseXML + New + Load + Annotate)", len(times))
	return rep, nil
}
