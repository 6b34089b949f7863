package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Spans of one operation share a trace id; parent indexes the
// recorder's span list (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Trace  uint64 `json:"trace"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps the spans of one goroutine in memory. A nil recorder
// records nothing, so untraced runs pay one nil check per call site.
type recorder struct {
	t0    time.Time
	trace uint64
	spans []span
}

func newRecorder(t0 time.Time, traceBase uint64) *recorder {
	return &recorder{t0: t0, trace: traceBase, spans: make([]span, 0, 1<<14)}
}

// root starts a new trace and its root span.
func (r *recorder) root(name string) int {
	if r == nil {
		return -1
	}
	r.trace++
	return r.begin(name, -1)
}

// begin opens a span under parent and returns its index.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Trace: r.trace, Parent: parent, Start: int64(time.Since(r.t0))})
	return len(r.spans) - 1
}

// end closes the span begin returned.
func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	r.spans[i].End = int64(time.Since(r.t0))
}

// ledger is the per-layer self time computed from recorded spans.
type ledger struct {
	self  map[string]time.Duration
	calls map[string]int
}

// buildLedger sums each span name's self time: the span's duration minus
// the time its child spans cover. Children of one parent run one after
// another on one goroutine, so their durations add without overlap.
func buildLedger(recs ...*recorder) *ledger {
	l := &ledger{self: map[string]time.Duration{}, calls: map[string]int{}}
	for _, r := range recs {
		if r == nil {
			continue
		}
		child := make([]time.Duration, len(r.spans))
		for _, s := range r.spans {
			if s.Parent >= 0 {
				child[s.Parent] += time.Duration(s.End - s.Start)
			}
		}
		for i, s := range r.spans {
			l.self[s.Name] += time.Duration(s.End-s.Start) - child[i]
			l.calls[s.Name]++
		}
	}
	return l
}

// mean is the average self time per call of one span name, in the given
// unit; zero when no such span was recorded.
func (l *ledger) mean(name string, unit time.Duration) float64 {
	n := l.calls[name]
	if n == 0 {
		return 0
	}
	return float64(l.self[name]) / float64(n) / float64(unit)
}

// writeSpans writes every recorded span as one JSON line.
func writeSpans(path string, recs ...*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range recs {
		if r == nil {
			continue
		}
		for _, s := range r.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
