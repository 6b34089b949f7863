package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"xmlac"
	"xmlac/internal/obs"
	"xmlac/internal/xmark"
)

// server is one running xmlac -serve child process.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	done chan struct{}
	once sync.Once
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer spawns xmlac with args plus -serve on a free loopback port
// and waits until /healthz answers. It returns the server and the time from
// spawn to the first healthy answer. A spawn that dies before answering
// (another process took the port, say) is retried on a new port.
func startServer(bin string, args []string, logPath string) (*server, time.Duration, error) {
	var last error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, 0, err
		}
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		log, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, 0, err
		}
		// Every flag precedes -serve's value and no positional operation
		// follows: xmlac stops parsing flags at the first operation.
		cmd := exec.Command(bin, append(append([]string{}, args...), "-serve", addr)...)
		cmd.Stdout, cmd.Stderr = log, log
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			log.Close()
			return nil, 0, fmt.Errorf("start xmlac: %w", err)
		}
		s := &server{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
		go func() {
			_ = cmd.Wait() // the exit status of a killed server carries no information
			log.Close()
			close(s.done)
		}()
		last = s.waitHealthy(60 * time.Second)
		if last == nil {
			return s, time.Since(start), nil
		}
		s.stop()
	}
	return nil, 0, fmt.Errorf("xmlac never became healthy: %w", last)
}

func (s *server) waitHealthy(limit time.Duration) error {
	c := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return errors.New("server exited before answering /healthz")
		default:
		}
		resp, err := c.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("timed out waiting for /healthz")
}

// stop kills the server and waits until the process has been reaped.
func (s *server) stop() {
	s.once.Do(func() {
		_ = s.cmd.Process.Kill() // fails only when the process already exited
		<-s.done
	})
}

// get fetches one route and returns its body, failing on any status but 200.
func (s *server) get(c *http.Client, route string) ([]byte, error) {
	resp, err := c.Get(s.base + route)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", route, resp.Status)
	}
	return body, nil
}

// metrics scrapes the server's registry as JSON.
func (s *server) metrics(c *http.Client) (snapshot, error) {
	var snap snapshot
	body, err := s.get(c, "/metrics?format=json")
	if err != nil {
		return snap, err
	}
	return snap, json.Unmarshal(body, &snap)
}

// memStats reads the runtime.MemStats lines of the server's heap profile
// after a forced collection.
func (s *server) memStats(c *http.Client) (map[string]float64, error) {
	body, err := s.get(c, "/debug/pprof/heap?gc=1&debug=1")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "# ") {
			continue
		}
		k, v, ok := strings.Cut(line[2:], " = ")
		if !ok {
			continue
		}
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			out[k] = f
		}
	}
	for _, k := range []string{"Mallocs", "HeapAlloc", "NumGC", "GCCPUFraction"} {
		if _, ok := out[k]; !ok {
			return nil, fmt.Errorf("heap profile has no %s line", k)
		}
	}
	return out, nil
}

// requestReply is the JSON body of /request.
type requestReply struct {
	Outcome string  `json:"outcome"`
	Checked int     `json:"checked"`
	IDs     []int64 `json:"ids"`
	Error   string  `json:"error"`
}

// ask sends one /request and turns the reply into an oracle-comparable
// answer.
func ask(c *http.Client, u string) (answer, error) {
	resp, err := c.Get(u)
	if err != nil {
		return answer{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return answer{}, fmt.Errorf("status %s", resp.Status)
	}
	var r requestReply
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		return answer{}, err
	}
	switch r.Outcome {
	case "deny":
		return answer{}, nil
	case "grant":
		a := answer{grant: true, n: r.Checked}
		for _, id := range r.IDs {
			a.idSum += id
		}
		return a, nil
	default:
		return answer{}, fmt.Errorf("outcome %q: %s", r.Outcome, r.Error)
	}
}

// enforcerCounts sums core_enforcer_requests_total over outcomes, per mode.
func enforcerCounts(s snapshot) map[string]int64 {
	out := map[string]int64{}
	for name, v := range s.Counters {
		rest, ok := strings.CutPrefix(name, `core_enforcer_requests_total{mode="`)
		if !ok {
			continue
		}
		mode, _, _ := strings.Cut(rest, `"`)
		out[mode] += v
	}
	return out
}

// histDelta is the mean (seconds) of the observations a histogram gained
// between two snapshots, over every series whose name has prefix.
func histDelta(a, b snapshot, prefix string) float64 {
	var sum float64
	var n uint64
	for name, h := range b.Histograms {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		sum += h.Sum - a.Histograms[name].Sum
		n += h.Count - a.Histograms[name].Count
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// runHTTPRewrite: the real xmlac binary with the vectorized column store
// and rewrite enforcement, f=0.05, two keep-alive closed-loop clients on
// /request over loopback.
func runHTTPRewrite(c runConfig) (*report, error) {
	const factor, clients, setups = 0.05, 2, 9
	if c.xmlac == "" {
		return nil, errors.New("-xmlac must name the xmlac binary")
	}
	in, err := makeInputs(c.seed, factor)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	rep.note("http-rewrite: xmlac -backend monetcol -enforce rewrite -serve on loopback, f=%g (%d elements), %d keep-alive closed-loop clients, seed %d",
		factor, in.elements, clients, c.seed)

	files := map[string][]byte{
		"doc.xml":    in.data,
		"xmark.dtd":  []byte(xmark.DTDText),
		"policy.txt": []byte(in.policy.String()),
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(c.workdir, name), data, 0o644); err != nil {
			return nil, err
		}
	}
	args := []string{
		"-backend", "monetcol", "-enforce", "rewrite",
		"-dtd", filepath.Join(c.workdir, "xmark.dtd"),
		"-policy", filepath.Join(c.workdir, "policy.txt"),
		"-doc", filepath.Join(c.workdir, "doc.xml"),
	}
	logPath := filepath.Join(c.workdir, "xmlac.log")

	// The child is killed and reaped on every way out: return, error, or a
	// termination signal to the benchmark itself.
	var (
		mu  sync.Mutex
		srv *server
	)
	setServer := func(s *server) {
		mu.Lock()
		srv = s
		mu.Unlock()
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	quit := make(chan struct{})
	defer func() {
		signal.Stop(sigc)
		close(quit)
		mu.Lock()
		if srv != nil {
			srv.stop()
		}
		mu.Unlock()
	}()
	go func() {
		select {
		case sig := <-sigc:
			mu.Lock()
			if srv != nil {
				srv.stop()
			}
			mu.Unlock()
			fmt.Fprintln(os.Stderr, "perfbench: stopped by", sig)
			os.Exit(1)
		case <-quit:
		}
	}()

	// spawn starts n servers one after another, timing each from spawn to
	// the first healthy /healthz; all but the last kept one are stopped.
	// Half the set-ups run before the loop and half after it, so that a
	// slow spell of the machine does not catch all of them.
	times := make([]float64, 0, setups)
	spawn := func(n int, keepLast bool) error {
		for i := 0; i < n; i++ {
			s, d, err := startServer(c.xmlac, args, logPath)
			if err != nil {
				if log, rerr := os.ReadFile(logPath); rerr == nil {
					fmt.Fprintf(os.Stderr, "xmlac log:\n%s", log)
				}
				return err
			}
			setServer(s)
			times = append(times, d.Seconds())
			if !keepLast || i < n-1 {
				s.stop()
				setServer(nil)
			}
		}
		return nil
	}
	if err := spawn(setups/2+1, true); err != nil {
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
	orc.accessible = nil

	hc := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients + 1, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
	defer hc.CloseIdleConnections()
	urls := make([]string, len(in.texts))
	for i, t := range in.texts {
		urls[i] = srv.base + "/request?q=" + url.QueryEscape(t)
	}
	// Warm-up: two passes build the rewrite scopes and every lazy memo.
	for pass := 0; pass < 2; pass++ {
		for i, u := range urls {
			a, err := ask(hc, u)
			if err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", in.texts[i], err)
			}
			if !orc.check(i, a) {
				return nil, fmt.Errorf("warm-up %s: answer differs from the oracle", in.texts[i])
			}
		}
	}

	orders := make([][]int, clients)
	for k := range orders {
		orders[k] = in.order(c.seed, k)
	}
	read := func(i int, rec *recorder, root int) (answer, error) {
		sp := rec.begin("http.request", root)
		defer rec.end(sp)
		return ask(hc, urls[i])
	}

	measured := time.Duration(c.seconds * float64(time.Second))
	if c.trace {
		measured /= 2
	}
	m0, err := srv.memStats(hc)
	if err != nil {
		return nil, err
	}
	snap0, err := srv.metrics(hc)
	if err != nil {
		return nil, err
	}
	cs, elapsed := closedLoop(measured, orders, make([]*recorder, clients), orc, read, nil)
	snap1, err := srv.metrics(hc)
	if err != nil {
		return nil, err
	}
	m1, err := srv.memStats(hc)
	if err != nil {
		return nil, err
	}
	t := sum(cs)
	ops := t.ops
	rep.attempted, rep.failed = t.ops, t.failed
	rep.e2e("ops_per_s", "1/s", windowRate(t.done, elapsed.Seconds()))
	p50, p95 := latencySummary(rep, "read", t.lat, t.done)
	rep.e2e("read_p50_ms", "ms", p50)
	rep.e2e("read_p95_ms", "ms", p95)
	// The two metric scrapes between the heap readings allocate too; at a
	// few hundred mallocs against tens of thousands of requests they are
	// negligible and, being the same every run, do not move comparisons.
	rep.e2e("allocs_per_op", "count", (m1["Mallocs"]-m0["Mallocs"])/float64(ops))
	rep.e2e("heap_mb", "MB", m1["HeapAlloc"]/(1<<20))

	enc0, enc1 := enforcerCounts(snap0), enforcerCounts(snap1)
	rewrite := enc1["rewrite"] - enc0["rewrite"]
	static := enc1["static-deny"] - enc0["static-deny"]
	signs := enc1["signs"] - enc0["signs"]
	if rewrite == 0 || signs != 0 || rewrite+static != ops {
		return nil, fmt.Errorf("self-check: %d requests sent, enforcer counted rewrite=%d static-deny=%d signs=%d; every request must go through rewrite enforcement",
			ops, rewrite, static, signs)
	}
	rep.note("enforcer: %d of %d requests answered by rewrite, %d refused by the static-deny check ahead of it", rewrite, ops, static)
	rep.note("read-path deny fraction %.3f", float64(t.deny)/float64(ops))

	if c.trace {
		snapT0, err := srv.metrics(hc)
		if err != nil {
			return nil, err
		}
		mT0, err := srv.memStats(hc)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		recs := make([]*recorder, clients)
		for k := range recs {
			recs[k] = newRecorder(t0, uint64(k+1)<<40)
		}
		cs, _ := closedLoop(measured, orders, recs, orc, read, nil)
		mT1, err := srv.memStats(hc)
		if err != nil {
			return nil, err
		}
		snapT1, err := srv.metrics(hc)
		if err != nil {
			return nil, err
		}
		tt := sum(cs)
		rep.attempted += tt.ops
		rep.failed += tt.failed
		tp50, _ := stretchQuantiles(tt.lat, tt.done)
		if err := httpLayers(rep, c, in, snapT0, snapT1, mT0, mT1, tt, tp50/p50-1, recs); err != nil {
			return nil, err
		}
	}
	hc.CloseIdleConnections()
	srv.stop()
	setServer(nil)
	if err := spawn(setups-len(times), false); err != nil {
		return nil, err
	}
	rep.e2e("setup_s", "s", median(times))
	rep.note("set-up: median of %d spawns of xmlac until /healthz answers", len(times))
	return rep, nil
}

// httpLayers fills the ledger of a traced http-rewrite run: server-side
// series scraped from /metrics and the heap profile, and in-process probes
// of the layer functions on a twin of the server's configuration.
func httpLayers(rep *report, c runConfig, in *inputs, a, b snapshot, ma, mb map[string]float64,
	t *clientTally, overhead float64, loopRecs []*recorder) error {
	const route = `http_request_seconds{route="/request"}`
	serverP50 := deltaQuantile(a.Histograms[route], b.Histograms[route], 0.5) * 1e3
	rep.layer("http.server_p50_ms", "ms", serverP50)
	rep.layer("http.server_p99_ms", "ms", deltaQuantile(a.Histograms[route], b.Histograms[route], 0.99)*1e3)
	rep.layer("http.client_gap_ms", "ms", median(t.lat)-serverP50)
	rep.layer("bench.trace_overhead_frac", "ratio", overhead)
	rep.note("http.server_p50_ms/p99_ms interpolate the server's /request latency buckets over the traced loop")

	reqMean := histDelta(a, b, "store_request_seconds{")
	rep.layer("core.request_us", "us", reqMean*1e6)
	rep.layer("core.deny_frac", "ratio", float64(t.deny)/float64(t.ops))
	rep.layer("xpath.matched_per_op", "count", float64(t.matched)/float64(t.ops))
	sqlLayers(rep, a, b, "vector", t.ops)
	rep.layer("core.rewrite_rebuilds", "count", float64(b.Counters["core_rewrite_scope_rebuilds_total"]))
	rep.layer("runtime.gc_cpu_frac", "ratio", mb["GCCPUFraction"])
	rep.layer("runtime.gc_per_kop", "1/kop", (mb["NumGC"]-ma["NumGC"])*1000/float64(t.ops))
	rep.note("runtime.gc_cpu_frac is the server's GCCPUFraction since start; runtime.gc_per_kop counts its collections over the traced loop")

	// In-process twin of the server's configuration for the layers the
	// server does not expose.
	rec := newRecorder(time.Now(), 0)
	schema := xmark.Schema()
	cfg := func() xmlac.Config {
		return xmlac.Config{Schema: schema, Policy: in.policy.Clone(), Backend: xmlac.BackendVector,
			Optimize: true, Enforce: xmlac.EnforceRewrite, Metrics: obs.NewRegistry()}
	}
	twin, _, err := setUpMany(3, in, cfg, rec)
	if err != nil {
		return err
	}
	for _, q := range in.queries {
		twin.ClassifyQuery(q) // fill the per-query verdict memo, as the server's warm-up did
	}
	for pass := 0; pass < 3; pass++ {
		for _, t := range in.texts {
			root := rec.root("probe")
			sp := rec.begin("xpath.parse", root)
			q, err := xmlac.ParseXPath(t)
			rec.end(sp)
			if err != nil {
				return err
			}
			sp = rec.begin("pattern.classify", root)
			twin.ClassifyQuery(q)
			rec.end(sp)
			rec.end(root)
		}
	}
	if err := probeStore(rec, twin, in.queries, 3); err != nil {
		return err
	}
	l := buildLedger(rec)
	rep.layer("xmltree.parse_ms", "ms", l.mean("xmltree.parse", time.Millisecond))
	rep.layer("core.load_ms", "ms", l.mean("core.load", time.Millisecond))
	rep.layer("xpath.parse_us", "us", l.mean("xpath.parse", time.Microsecond))
	rep.layer("pattern.classify_us", "us", l.mean("pattern.classify", time.Microsecond))
	rep.layer("shred.translate_us", "us", l.mean("shred.translate", time.Microsecond))
	rep.layer("store.accessible_ids_ms", "ms", l.mean("store.accessible_ids", time.Millisecond))
	rep.layer("core.other_us", "us", reqMean*1e6-l.mean("pattern.classify", time.Microsecond)-l.mean("shred.translate", time.Microsecond))
	rep.note("xmltree.parse_ms, core.load_ms, xpath.parse_us, pattern.classify_us, shred.translate_us and store.accessible_ids_ms are probes on an in-process twin of the server (same backend, mode and inputs); core.request_us is the server's store_request_seconds mean over the traced loop")
	rep.note("core.other_us is a mixed-source estimate: the server's store_request_seconds mean minus the twin's classify and translate times")
	absentLayers(rep, "rewrite enforcement evaluates queries in SQL against scope sets: no annotation, tree evaluation or CAM",
		"core.annotate_ms", "xpath.eval_us", "cam.check_us", "cam.build_ms", "core.qcache_hit_frac")
	absentLayers(rep, "http-rewrite only reads", writeLayerNames...)
	if err := writeSpans(c.spanFile(), append(loopRecs, rec)...); err != nil {
		return err
	}
	rep.note("spans written to %s", c.spanFile())
	return nil
}
