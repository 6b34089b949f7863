package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. Nil counters no-op.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. Nil gauges no-op.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

// Set stores the current value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// DefaultLatencyBuckets are the fixed histogram bucket upper bounds in
// seconds, spanning the microsecond statements of the SQL engine up to
// whole-run annotation times.
var DefaultLatencyBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10,
}

// Histogram is a fixed-bucket latency histogram (cumulative counts,
// Prometheus-style). Nil histograms no-op.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // sorted upper bounds
	counts []uint64  // len(bounds)+1, last bucket is +Inf
	count  uint64
	sum    float64
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// ObserveDuration records a duration sample in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	// Buckets holds cumulative counts per upper bound; the final entry is
	// the +Inf bucket and equals Count.
	Buckets []BucketCount `json:"buckets"`
	Count   uint64        `json:"count"`
	Sum     float64       `json:"sum"`
	// P50/P95/P99 are the interpolated latency quantiles (see Quantile),
	// precomputed so JSON consumers need no bucket math.
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

// Quantile estimates the p-quantile (p in [0,1], clamped) from the
// cumulative buckets by linear interpolation inside the bucket holding
// the target rank — the same estimate Prometheus's histogram_quantile
// computes server-side. Values beyond the highest finite bound (the +Inf
// bucket) report that highest finite bound: the histogram cannot resolve
// further. An empty histogram reports 0; p=0 reports the lower edge of
// the first occupied bucket.
func (s HistogramSnapshot) Quantile(p float64) float64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := p * float64(s.Count)
	var prevCum uint64
	var lower float64
	for i, b := range s.Buckets {
		if i > 0 {
			lower = s.Buckets[i-1].UpperBound
			prevCum = s.Buckets[i-1].Count
		}
		in := b.Count - prevCum
		if in == 0 || float64(b.Count) < rank {
			continue
		}
		if math.IsInf(b.UpperBound, 1) {
			return lower
		}
		frac := (rank - float64(prevCum)) / float64(in)
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		return lower + (b.UpperBound-lower)*frac
	}
	return lower
}

// BucketCount is one cumulative histogram bucket.
type BucketCount struct {
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"`
}

// MarshalJSON renders the upper bound as a string so the final +Inf
// bucket survives encoding/json (which rejects infinite float values).
func (b BucketCount) MarshalJSON() ([]byte, error) {
	le := formatFloat(b.UpperBound)
	if math.IsInf(b.UpperBound, 1) {
		le = "+Inf"
	}
	return json.Marshal(struct {
		UpperBound string `json:"le"`
		Count      uint64 `json:"count"`
	}{le, b.Count})
}

func (h *Histogram) snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{Count: h.count, Sum: h.sum}
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += h.counts[i]
		s.Buckets = append(s.Buckets, BucketCount{UpperBound: b, Count: cum})
	}
	cum += h.counts[len(h.bounds)]
	s.Buckets = append(s.Buckets, BucketCount{UpperBound: math.Inf(1), Count: cum})
	s.P50 = s.Quantile(0.50)
	s.P95 = s.Quantile(0.95)
	s.P99 = s.Quantile(0.99)
	return s
}

// Registry holds named metrics. Get-or-create accessors are safe for
// concurrent use; a nil registry hands out nil (no-op) metrics so
// instrumented code needs no enabled-checks.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds (DefaultLatencyBuckets when none are given) on
// first use. Later calls return the existing histogram regardless of
// bounds.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of a registry's contents.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies the registry contents.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()
	for k, v := range counters {
		s.Counters[k] = v.Value()
	}
	for k, v := range gauges {
		s.Gauges[k] = v.Value()
	}
	for k, v := range hists {
		s.Histograms[k] = v.snapshot()
	}
	return s
}

// metricBase strips an inline label set from a metric name:
// `store_queries_total{engine="native"}` → `store_queries_total`. The
// registry has no first-class label support — labeled series are distinct
// names carrying their label set inline — so the exposition writer derives
// the metric family from the base name.
func metricBase(name string) string {
	base, _ := splitMetricName(name)
	return base
}

// splitMetricName splits an inline-labeled name into its family base and
// the bare label list: `x{a="b"}` → ("x", `a="b"`); an unlabeled name
// yields ("x", ""). The histogram writer needs the pieces separately to
// splice the `le` label in and to hang the _sum/_count/_pNN suffixes on
// the base rather than after the closing brace.
func splitMetricName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format. Metric names are emitted verbatim (choose them accordingly);
// names sharing a base before an inline `{label}` set form one metric
// family and get a single # TYPE header (sorted emission keeps them
// adjacent, as `{` sorts after every identifier character).
func (r *Registry) WritePrometheus(w io.Writer) error {
	s := r.Snapshot()
	lastBase := ""
	for _, name := range sortedKeys(s.Counters) {
		if base := metricBase(name); base != lastBase {
			lastBase = base
			if _, err := fmt.Fprintf(w, "# TYPE %s counter\n", base); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", name, s.Counters[name]); err != nil {
			return err
		}
	}
	lastBase = ""
	for _, name := range sortedKeys(s.Gauges) {
		if base := metricBase(name); base != lastBase {
			lastBase = base
			if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", base); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", name, formatFloat(s.Gauges[name])); err != nil {
			return err
		}
	}
	lastBase = ""
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		base, labels := splitMetricName(name)
		if base != lastBase {
			lastBase = base
			if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", base); err != nil {
				return err
			}
		}
		suffix := ""
		if labels != "" {
			suffix = "{" + labels + "}"
		}
		for _, b := range h.Buckets {
			le := formatFloat(b.UpperBound)
			if math.IsInf(b.UpperBound, 1) {
				le = "+Inf"
			}
			series := fmt.Sprintf("%s_bucket{le=%q}", base, le)
			if labels != "" {
				series = fmt.Sprintf("%s_bucket{%s,le=%q}", base, labels, le)
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", series, b.Count); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n%s_count%s %d\n",
			base, suffix, formatFloat(h.Sum), base, suffix, h.Count); err != nil {
			return err
		}
	}
	// Interpolated latency quantiles, derived per histogram series. Each
	// suffix is its own gauge family (a histogram family may not carry
	// extra sample suffixes), emitted in one pass per suffix so label
	// variants of a base stay adjacent under a single TYPE header.
	for _, q := range []struct {
		suffix string
		p      float64
	}{{"_p50", 0.50}, {"_p95", 0.95}, {"_p99", 0.99}} {
		lastBase = ""
		for _, name := range sortedKeys(s.Histograms) {
			h := s.Histograms[name]
			if h.Count == 0 {
				continue
			}
			base, labels := splitMetricName(name)
			fam := base + q.suffix
			if fam != lastBase {
				lastBase = fam
				if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", fam); err != nil {
					return err
				}
			}
			series := fam
			if labels != "" {
				series = fam + "{" + labels + "}"
			}
			if _, err := fmt.Fprintf(w, "%s %s\n", series, formatFloat(h.Quantile(q.p))); err != nil {
				return err
			}
		}
	}
	return nil
}

func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// WriteJSON renders the snapshot as indented JSON (the `acbench -metrics`
// dump format).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// ServeHTTP exposes the registry expvar-style: Prometheus text by
// default, JSON with ?format=json or an Accept header naming
// application/json (the query parameter wins when both are present).
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	format := req.URL.Query().Get("format")
	if format == "" && strings.Contains(req.Header.Get("Accept"), "application/json") {
		format = "json"
	}
	if format == "json" {
		w.Header().Set("Content-Type", "application/json")
		_ = r.WriteJSON(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = r.WritePrometheus(w)
}
