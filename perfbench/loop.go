package main

import (
	"sync"
	"time"
)

// clientTally is one closed-loop client's record of its requests.
type clientTally struct {
	lat, done         []float64 // latency (ms); completion time (s since the loop started)
	ops, failed, deny int64
	matched           int64 // the oracle's match count of every query sent, summed
}

// readFunc sends query i of the mix and returns the answer.
// Spans it records go under root.
type readFunc func(i int, rec *recorder, root int) (answer, error)

// closedLoop runs one client per order for d. Each client sends its next
// query as soon as the previous answer arrives, times it and checks it
// against the oracle; an error counts as a failed request. after, when
// set, runs outside the timed region after every request.
func closedLoop(d time.Duration, orders [][]int, recs []*recorder, orc *oracle, read readFunc, after func(i int, rec *recorder)) ([]*clientTally, time.Duration) {
	cs := make([]*clientTally, len(orders))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for k, order := range orders {
		cl := &clientTally{lat: make([]float64, 0, 1<<16), done: make([]float64, 0, 1<<16)}
		cs[k] = cl
		rec := recs[k]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; time.Now().Before(deadline); j++ {
				i := order[j%len(order)]
				root := rec.root("op")
				t := time.Now()
				a, err := read(i, rec, root)
				cl.lat = append(cl.lat, float64(time.Since(t))/1e6)
				cl.done = append(cl.done, time.Since(start).Seconds())
				rec.end(root)
				cl.ops++
				cl.matched += int64(orc.want[i].n)
				if err != nil || !orc.check(i, a) {
					cl.failed++
				}
				if !a.grant {
					cl.deny++
				}
				if after != nil {
					after(i, rec)
				}
			}
		}()
	}
	wg.Wait()
	return cs, time.Since(start)
}

// sum merges the clients' tallies.
func sum(cs []*clientTally) *clientTally {
	t := &clientTally{}
	for _, cl := range cs {
		t.ops += cl.ops
		t.failed += cl.failed
		t.deny += cl.deny
		t.matched += cl.matched
		t.lat = append(t.lat, cl.lat...)
		t.done = append(t.done, cl.done...)
	}
	return t
}
