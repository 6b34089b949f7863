package obs

import (
	"math"
	"strings"
	"testing"
)

func TestHistogramQuantileEmpty(t *testing.T) {
	r := NewRegistry()
	r.Histogram("empty_seconds", 0.01, 0.1)
	s := r.Snapshot().Histograms["empty_seconds"]
	for _, p := range []float64{0, 0.5, 0.99, 1} {
		if got := s.Quantile(p); got != 0 {
			t.Errorf("Quantile(%g) on empty histogram = %g, want 0", p, got)
		}
	}
	if s.P50 != 0 || s.P95 != 0 || s.P99 != 0 {
		t.Errorf("empty snapshot quantiles = %g/%g/%g, want zeros", s.P50, s.P95, s.P99)
	}
	// Empty histograms are left out of the derived quantile gauges.
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "empty_seconds_p50") {
		t.Errorf("empty histogram emitted a quantile gauge:\n%s", b.String())
	}
}

func TestHistogramQuantileSingleBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("one_seconds", 1.0) // buckets: le=1, +Inf
	for i := 0; i < 10; i++ {
		h.Observe(0.5)
	}
	s := r.Snapshot().Histograms["one_seconds"]
	// All samples sit in [0,1]; interpolation walks that range linearly.
	if got := s.Quantile(0.5); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("p50 = %g, want 0.5", got)
	}
	if got := s.Quantile(1); math.Abs(got-1) > 1e-9 {
		t.Errorf("p100 = %g, want 1", got)
	}
}

func TestHistogramQuantileInfBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("inf_seconds", 0.01, 0.1)
	h.Observe(5) // only the +Inf bucket is occupied
	h.Observe(7)
	s := r.Snapshot().Histograms["inf_seconds"]
	// The histogram cannot resolve beyond its highest finite bound.
	for _, p := range []float64{0.5, 0.99, 1} {
		if got := s.Quantile(p); got != 0.1 {
			t.Errorf("Quantile(%g) = %g, want highest finite bound 0.1", p, got)
		}
	}
}

func TestHistogramQuantileExtremes(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("x_seconds", 0.01, 0.1, 1)
	h.Observe(0.05) // (0.01, 0.1]
	h.Observe(0.06)
	h.Observe(0.5) // (0.1, 1]
	s := r.Snapshot().Histograms["x_seconds"]
	// p=0 reports the lower edge of the first occupied bucket.
	if got := s.Quantile(0); math.Abs(got-0.01) > 1e-9 {
		t.Errorf("p0 = %g, want 0.01", got)
	}
	// p=1 reports the upper bound of the last occupied bucket.
	if got := s.Quantile(1); math.Abs(got-1) > 1e-9 {
		t.Errorf("p100 = %g, want 1", got)
	}
	// Out-of-range p clamps instead of extrapolating.
	if s.Quantile(-3) != s.Quantile(0) || s.Quantile(7) != s.Quantile(1) {
		t.Error("out-of-range p did not clamp")
	}
	// Interior quantile interpolates within the owning bucket:
	// rank(0.5)=1.5 of 3 → halfway through the 2-sample (0.01,0.1] bucket.
	want := 0.01 + (0.1-0.01)*(1.5/2)
	if got := s.Quantile(0.5); math.Abs(got-want) > 1e-9 {
		t.Errorf("p50 = %g, want %g", got, want)
	}
}

func TestHistogramQuantileAllZeroCounts(t *testing.T) {
	// A snapshot whose buckets all hold zero is the empty case even when
	// the bucket list is fully materialized.
	s := HistogramSnapshot{Buckets: []BucketCount{
		{UpperBound: 0.01}, {UpperBound: 0.1}, {UpperBound: math.Inf(1)},
	}}
	for _, p := range []float64{0, 0.5, 1} {
		if got := s.Quantile(p); got != 0 {
			t.Errorf("Quantile(%g) over all-zero buckets = %g, want 0", p, got)
		}
	}
	// A corrupt snapshot (Count > 0 but no bucket reaches the rank) must
	// degrade to the last finite lower edge instead of panicking.
	s.Count = 5
	if got := s.Quantile(0.9); got != 0.1 {
		t.Errorf("Quantile on rankless snapshot = %g, want 0.1", got)
	}
}

func TestLabeledHistogramExposition(t *testing.T) {
	r := NewRegistry()
	r.Histogram(`req_seconds{engine="row"}`, 0.1).Observe(0.05)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	// The inline label set is spliced next to le, never after the brace.
	for _, want := range []string{
		"# TYPE req_seconds histogram",
		`req_seconds_bucket{engine="row",le="0.1"} 1`,
		`req_seconds_sum{engine="row"} 0.05`,
		`req_seconds_count{engine="row"} 1`,
		"# TYPE req_seconds_p50 gauge",
		`req_seconds_p50{engine="row"} 0.05`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, `}_`) {
		t.Errorf("suffix hung after a closing label brace:\n%s", got)
	}
}
