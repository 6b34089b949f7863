// Command perfbench is xmlac's end-to-end benchmark. It runs one named
// workload against the program's public API (or, for http-rewrite, against
// the real xmlac server over loopback), checks every answer against the
// brute-force Table 2 oracle, and prints one JSON object as the last line
// of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (what a user of the
// system sees); with -trace 1 they are the per-layer ledger, measured from
// outside by timing calls into each module's public functions. A human
// summary, including the latency percentile with its sample count, goes to
// standard error.
//
// Usage (from the repository root, normally through perfbench/run.sh):
//
//	perfbench -xmlac <server binary> -workdir <scratch dir> \
//	    --workload read-native --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's machine-readable output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig carries the command-line settings into a workload.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	xmlac    string // path of the xmlac binary (http-rewrite only)
	workdir  string // scratch directory for files the run writes
	outdir   string // where the traced run leaves its spans
}

// spanFile is where a traced run writes its spans.
func (c runConfig) spanFile() string {
	return filepath.Join(c.outdir, fmt.Sprintf("spans-%s-%d.jsonl", c.workload, c.seed))
}

// report is what a workload hands back: the counts, both metric sets and
// the notes printed to standard error.
type report struct {
	attempted, failed int64
	endToEnd          map[string]metric
	layers            map[string]metric
	notes             []string
}

func newReport() *report {
	return &report{endToEnd: map[string]metric{}, layers: map[string]metric{}}
}

func (r *report) e2e(name, unit string, v float64)   { r.endToEnd[name] = metric{v, unit} }
func (r *report) layer(name, unit string, v float64) { r.layers[name] = metric{v, unit} }
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig) (*report, error){
	"read-native":  runReadNative,
	"write-row":    runWriteRow,
	"http-rewrite": runHTTPRewrite,
}

// endToEndNames and layerNames are the metric sets of BENCHMARK.json; every
// run reports each name of the set its -trace flag selects.
var endToEndNames = []string{
	"setup_s", "ops_per_s", "read_p50_ms", "read_p95_ms", "allocs_per_op", "heap_mb",
}

var layerNames = []string{
	"xmltree.parse_ms", "core.load_ms", "core.annotate_ms",
	"xpath.parse_us", "pattern.classify_us", "xpath.eval_us", "xpath.matched_per_op",
	"cam.check_us", "cam.build_ms", "core.request_us", "core.other_us",
	"core.deny_frac", "core.qcache_hit_frac",
	"core.insert_ms", "core.delete_ms", "core.prepare_ms", "core.apply_ms", "core.reannotate_ms",
	"core.triggered_per_write", "core.reannotated_per_write",
	"store.accessible_ids_ms", "shred.translate_us",
	"sqldb.statements_per_op", "sqldb.rows_scanned_per_op", "sqldb.plan_cache_hit_frac", "sqldb.vector_rows_per_op",
	"http.server_p50_ms", "http.server_p99_ms", "http.client_gap_ms",
	"core.rewrite_rebuilds", "runtime.gc_cpu_frac", "runtime.gc_per_kop",
	"bench.trace_overhead_frac",
}

func main() {
	var c runConfig
	flag.StringVar(&c.workload, "workload", "", "workload to run: read-native, write-row or http-rewrite")
	flag.Uint64Var(&c.seed, "seed", 1, "seed for the generated document, templates and query order")
	flag.Float64Var(&c.seconds, "seconds", 15, "length of the measured closed loop, in seconds")
	traceFlag := flag.Int("trace", 0, "1 reports the per-layer ledger instead of the end-to-end metrics")
	flag.StringVar(&c.xmlac, "xmlac", "", "path of the xmlac binary (http-rewrite)")
	flag.StringVar(&c.workdir, "workdir", ".bench_build/perfbench/run", "directory for files the run writes")
	flag.Parse()
	c.trace = *traceFlag != 0

	if err := run(c); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(c runConfig) error {
	runner, ok := workloads[c.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want read-native, write-row or http-rewrite)", c.workload)
	}
	if c.seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	outdir, err := filepath.Abs(c.workdir)
	if err != nil {
		return err
	}
	c.outdir = outdir
	dir, err := filepath.Abs(filepath.Join(c.workdir, fmt.Sprintf("%s-%d-%d", c.workload, c.seed, os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	c.workdir = dir

	start := time.Now()
	rep, err := runner(c)
	if err != nil {
		return fmt.Errorf("%s: %w", c.workload, err)
	}
	names, set := endToEndNames, rep.endToEnd
	if c.trace {
		names, set = layerNames, rep.layers
	}
	out := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	if out.Attempted < 1 {
		return errors.New("no operation completed")
	}
	for _, n := range names {
		m, ok := set[n]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", c.workload, n)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("%s: metric %s is %v", c.workload, n, m.Value)
		}
		out.Metrics[n] = m
	}

	fmt.Fprintf(os.Stderr, "perfbench %s seed=%d seconds=%g trace=%v (wall %.1fs)\n",
		c.workload, c.seed, c.seconds, c.trace, time.Since(start).Seconds())
	printSorted(rep.endToEnd, "  ")
	if c.trace {
		printSorted(rep.layers, "  ")
	}
	fmt.Fprintf(os.Stderr, "  fail_frac %g (%d of %d attempted)\n",
		float64(rep.failed)/float64(rep.attempted), rep.failed, rep.attempted)
	for _, n := range rep.notes {
		fmt.Fprintln(os.Stderr, "  note:", n)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func printSorted(set map[string]metric, indent string) {
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "%s%s %.6g %s\n", indent, n, set[n].Value, set[n].Unit)
	}
}
