package main

import (
	"math"
	"sort"
	"time"
)

// latencies collects one phase's request latencies in milliseconds. A
// request that failed, was refused, timed out or returned wrong bytes is a
// miss: it enters the sample as +Inf, so it sits above every real latency
// and can only push a percentile up, never improve it.
type latencies struct {
	ms     []float64
	misses int
}

func (l *latencies) add(d time.Duration) { l.ms = append(l.ms, float64(d)/1e6) }

func (l *latencies) miss() {
	l.ms = append(l.ms, math.Inf(1))
	l.misses++
}

// n is the sample count every quantile of l is taken over.
func (l *latencies) n() int { return len(l.ms) }

// quantile returns the nearest-rank q-quantile (0 < q <= 1): the smallest
// sample with at least q·n samples at or below it. Nearest rank never
// interpolates, so a miss is reported as +Inf rather than blended into a
// finite number. An empty sample has no quantile and returns +Inf.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.Inf(1)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean is the geometric mean of xs, the figure of a workload with
// several operations: each counts equally, whatever its rate or scale.
// A miss (+Inf) in any makes the mean +Inf.
func geomean(xs ...float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// missAware folds per-request latencies into a sample; a negative
// latency marks a miss and enters as +Inf.
func missAware(lat []time.Duration) *latencies {
	l := &latencies{}
	for _, d := range lat {
		if d < 0 {
			l.miss()
		} else {
			l.add(d)
		}
	}
	return l
}

// timeOp measures f's cost per call in nanoseconds: it runs batches of
// calls, each batch long enough to dwarf the timer's resolution, until
// budget is spent, and returns the median per-call cost over the batches.
func timeOp(budget time.Duration, f func()) float64 {
	f() // warm caches and lazy state outside the timed batches
	per := 1
	for {
		t := time.Now()
		for i := 0; i < per; i++ {
			f()
		}
		if time.Since(t) >= time.Millisecond || per >= 1<<20 {
			break
		}
		per *= 2
	}
	var costs []float64
	end := time.Now().Add(budget)
	for len(costs) < 5 || time.Now().Before(end) {
		t := time.Now()
		for i := 0; i < per; i++ {
			f()
		}
		costs = append(costs, float64(time.Since(t).Nanoseconds())/float64(per))
	}
	return median(costs)
}
