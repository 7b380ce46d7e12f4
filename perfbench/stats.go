package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile's rank before
// the benchmark reports that percentile: a p99 needs at least 1000
// samples.
const minBeyond = 10

// pct is one percentile of a latency sample, with the evidence behind it.
type pct struct {
	P      float64 // quantile in (0, 1)
	Value  float64
	N      int // sample count
	Beyond int // samples ranked above the percentile
}

// OK reports whether enough samples lie beyond the percentile to report it.
func (p pct) OK() bool { return p.N > 0 && p.Beyond >= minBeyond }

func (p pct) String() string {
	if !p.OK() {
		return fmt.Sprintf("p%g unsupported (n=%d, %d beyond)", p.P*100, p.N, p.Beyond)
	}
	return fmt.Sprintf("p%g=%.1f (n=%d, %d beyond)", p.P*100, p.Value, p.N, p.Beyond)
}

// percentile returns the nearest-rank p-quantile of xs: the smallest
// sample with at least a share p of the samples at or below it. xs is
// sorted in place.
func percentile(xs []float64, p float64) pct {
	out := pct{P: p, N: len(xs)}
	if len(xs) == 0 {
		return out
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	out.Value = xs[rank-1]
	out.Beyond = len(xs) - rank
	return out
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count) without modifying xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// gmean returns the geometric mean of positive values.
func gmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// sendOffset is the open-loop schedule: the time, relative to the start of
// a phase, at which request k of connection c (of conns connections) is
// due, for a combined rate of rate requests per second. Connections are
// staggered evenly inside one per-connection interval so the combined
// arrivals are evenly spaced.
func sendOffset(k, c, conns int, rate float64) time.Duration {
	perConn := rate / float64(conns)
	return time.Duration((float64(k) + float64(c)/float64(conns)) / perConn * float64(time.Second))
}

// requestsIn is how many requests one connection sends in a phase of
// length d at a combined rate over conns connections.
func requestsIn(d time.Duration, conns int, rate float64) int {
	return int(d.Seconds() * rate / float64(conns))
}

// backlogGrew reports whether a phase's queue grew: the last response
// arrived more than limit after the last request was due. An open loop
// that keeps up answers its last request about one latency after it was
// due; one that falls behind finishes a whole backlog later.
func backlogGrew(lastDue, lastDone time.Duration, limit time.Duration) bool {
	return lastDone-lastDue > limit
}
