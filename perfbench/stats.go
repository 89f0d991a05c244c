package main

import (
	"math"
	"slices"
	"time"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a p99 needs at least 1000 samples, a p50 at least 20.
const minTail = 10

// percentile returns the q-quantile (0 < q < 1) of xs by the nearest-rank
// rule, and false when fewer than minTail samples lie beyond it.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	// The tolerance keeps float error in q*n from moving the rank.
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if n == 0 || n-rank < minTail {
		return 0, false
	}
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	return sorted[max(rank-1, 0)], true
}

// windowedPercentile splits xs, in arrival order, into as many consecutive
// equal windows as can each support the q-quantile, and returns the median
// of the windows' quantiles: a stall confined to one window moves one
// value, not the result. False when not even one window supports it.
func windowedPercentile(xs []float64, q float64) (float64, bool) {
	need := int(math.Ceil(minTail/(1-q) - 1e-9))
	k := len(xs) / need
	if k == 0 {
		return 0, false
	}
	size := len(xs) / k
	vals := make([]float64, k)
	for i := range vals {
		vals[i], _ = percentile(xs[i*size:(i+1)*size], q)
	}
	return median(vals), true
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); xs is sorted in place. Zero for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	slices.Sort(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// interval is a half-open time range [start, end) in nanoseconds.
type interval struct{ start, end int64 }

// unionLen returns how much of [lo, hi) the intervals cover, counting any
// overlap once: parallel quorum legs that overlap in time block the caller
// for their union, not their sum.
func unionLen(lo, hi int64, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	slices.SortFunc(clipped, func(a, b interval) int {
		switch {
		case a.start < b.start:
			return -1
		case a.start > b.start:
			return 1
		}
		return 0
	})
	var total, curS, curE int64
	for i, iv := range clipped {
		if i == 0 || iv.start > curE {
			total += curE - curS
			curS, curE = iv.start, iv.end
			continue
		}
		curE = max(curE, iv.end)
	}
	return total + curE - curS
}

// selfTime is a span's duration minus the union of its children's
// intervals: the time the layer spent on its own work.
func selfTime(start, end int64, children []interval) int64 {
	if end <= start {
		return 0
	}
	return end - start - unionLen(start, end, children)
}

// netSelf is a multicast's duration minus its slowest leg's service time:
// the caller waited for every leg, so the critical path holds one
// replica's service and the rest is wire, queueing and scheduling. A
// negative difference (a serve span clipped by clock granularity) counts
// as zero.
func netSelf(call time.Duration, legServes []time.Duration) time.Duration {
	var slowest time.Duration
	for _, s := range legServes {
		slowest = max(slowest, s)
	}
	return max(call-slowest, 0)
}

// windowRates returns the events per second in each window between
// consecutive edges, from the event times ts (any order).
func windowRates(ts []time.Time, edges []time.Time) []float64 {
	if len(edges) < 2 {
		return nil
	}
	counts := make([]int, len(edges)-1)
	for _, t := range ts {
		if i := windowOf(edges, t); i >= 0 {
			counts[i]++
		}
	}
	rates := make([]float64, len(counts))
	for i, c := range counts {
		rates[i] = float64(c) / edges[i+1].Sub(edges[i]).Seconds()
	}
	return rates
}
