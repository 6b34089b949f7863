package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"

	"xmlac/internal/bench"
	"xmlac/internal/policy"
	"xmlac/internal/xmark"
	"xmlac/internal/xmltree"
	"xmlac/internal/xpath"
)

// inputs are everything a workload derives from its seed: the XMark
// document as the bytes the program receives, the paper's mid-coverage
// policy (c3) and the 55-query mix, in the order each client sends it.
type inputs struct {
	factor   float64
	data     []byte
	elements int
	policy   *policy.Policy
	texts    []string // the query mix, as text
	queries  []*xpath.Path
}

func makeInputs(seed uint64, factor float64) (*inputs, error) {
	doc := xmark.Generate(xmark.Options{Factor: factor, Seed: seed})
	var buf bytes.Buffer
	if err := doc.Write(&buf, xmltree.WriteOptions{}); err != nil {
		return nil, fmt.Errorf("serialize document: %w", err)
	}
	in := &inputs{factor: factor, data: buf.Bytes(), elements: doc.ElementCount(), policy: bench.MidPolicy()}
	in.queries = bench.Queries()
	for _, q := range in.queries {
		in.texts = append(in.texts, q.String())
	}
	return in, nil
}

// parse gives a fresh tree of the workload's document.
func (in *inputs) parse() (*xmltree.Document, error) {
	return xmltree.Parse(bytes.NewReader(in.data))
}

// order is a seeded permutation of the query mix for one client.
func (in *inputs) order(seed uint64, client int) []int {
	r := rand.New(rand.NewSource(int64(seed*1000003 + uint64(client))))
	return r.Perm(len(in.texts))
}

// expect is the oracle's answer to one query in one document state.
type expect struct {
	grant bool
	n     int   // matched element count
	idSum int64 // sum of the matched universal ids
}

// oracle holds the brute-force Table 2 answers for one document state:
// the accessible set from policy.Semantics and, per query, the outcome of
// the all-or-nothing check over xpath.Eval's matches.
type oracle struct {
	accessible map[int64]bool
	want       []expect
}

func newOracle(pol *policy.Policy, doc *xmltree.Document, queries []*xpath.Path) (*oracle, error) {
	acc, err := pol.Semantics(doc)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	o := &oracle{accessible: acc, want: make([]expect, len(queries))}
	for i, q := range queries {
		nodes, err := xpath.Eval(q, doc)
		if err != nil {
			return nil, fmt.Errorf("oracle: %s: %w", q, err)
		}
		e := expect{grant: true, n: len(nodes)}
		for _, n := range nodes {
			e.idSum += n.ID
			if !acc[n.ID] {
				e.grant = false
			}
		}
		o.want[i] = e
	}
	return o, nil
}

// answer is what the program returned for one request.
type answer struct {
	grant bool
	n     int
	idSum int64
}

// check compares an answer with the oracle; a denial is a correct answer
// when the oracle denies too.
func (o *oracle) check(i int, a answer) bool {
	w := o.want[i]
	if a.grant != w.grant {
		return false
	}
	if !a.grant {
		return true
	}
	return a.n == w.n && a.idSum == w.idSum
}

// mixShape counts the grants and denials the oracle expects over the
// mix; a workload refuses to run on a mix that lacks either.
func (o *oracle) mixShape() (grants, denials int) {
	for _, w := range o.want {
		if w.grant {
			grants++
		} else {
			denials++
		}
	}
	return
}

func sameSet(a, b map[int64]bool) bool {
	n := 0
	for id, ok := range a {
		if !ok {
			continue
		}
		if !b[id] {
			return false
		}
		n++
	}
	m := 0
	for _, ok := range b {
		if ok {
			m++
		}
	}
	return n == m
}

// quantile returns the p-quantile of sorted samples by linear
// interpolation between closest ranks.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// windowRate is the median over whole one-second windows of the number of
// operations completed in each; done holds completion times in seconds
// since the loop started, and total is the loop's length. A median over
// windows keeps a short stall of the machine from moving the rate. Loops
// shorter than three windows report the plain mean rate.
func windowRate(done []float64, total float64) float64 {
	n := int(total)
	if n < 3 {
		return float64(len(done)) / total
	}
	counts := make([]float64, n)
	for _, t := range done {
		if w := int(t); w >= 0 && w < n {
			counts[w]++
		}
	}
	return median(counts)
}

// tail names the highest of p99.9, p99, p95 and p90 that has at least ten
// samples beyond it.
func tail(n int) (string, float64) {
	for _, t := range []struct {
		name string
		p    float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p95", 0.95}, {"p90", 0.9}} {
		if float64(n)*(1-t.p) >= 10 {
			return t.name, t.p
		}
	}
	return "p50", 0.5
}

// latencySummary reports read latency as the median, over eight
// consecutive stretches of the run holding equally many samples, of each
// stretch's p50 and p95: a slow spell of the machine that covers less
// than three eighths of the run does not move them. ms holds latencies in
// milliseconds and done their completion times, in any common order. The
// note gives the whole run's percentiles, the highest one with at least
// ten samples beyond it, and the sample count.
func latencySummary(rep *report, kind string, ms, done []float64) (p50, p95 float64) {
	p50, p95 = stretchQuantiles(ms, done)
	all := append([]float64(nil), ms...)
	sort.Float64s(all)
	name, p := tail(len(all))
	rep.note("%s latency over %d samples: p50 %.4g ms, p95 %.4g ms, %s %.4g ms (highest percentile with >=10 samples beyond it); per-stretch medians p50 %.4g ms, p95 %.4g ms",
		kind, len(all), quantile(all, 0.5), quantile(all, 0.95), name, quantile(all, p), p50, p95)
	if float64(len(all))*0.05/stretches < 10 {
		rep.note("%s p95: fewer than 10 samples beyond it in each stretch", kind)
	}
	return p50, p95
}

const stretches = 8

// stretchQuantiles is the median over the run's stretches of their p50
// and p95 (see latencySummary).
func stretchQuantiles(ms, done []float64) (p50, p95 float64) {
	idx := make([]int, len(ms))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return done[idx[a]] < done[idx[b]] })
	var p50s, p95s []float64
	for k := 0; k < stretches; k++ {
		part := make([]float64, 0, len(ms)/stretches+1)
		for _, i := range idx[k*len(idx)/stretches : (k+1)*len(idx)/stretches] {
			part = append(part, ms[i])
		}
		sort.Float64s(part)
		p50s = append(p50s, quantile(part, 0.5))
		p95s = append(p95s, quantile(part, 0.95))
	}
	return median(p50s), median(p95s)
}
