package main

import (
	"sort"
	"time"
)

// percentileLadder is the set of percentiles a latency series may be
// reported at, highest first.
var percentileLadder = []float64{99.9, 99, 95, 90, 75, 50}

// supportedPercentile returns the highest percentile of the ladder, at or
// below want, that still has at least ten samples beyond it in a series of
// n samples. A series too short for any rung reports its median.
func supportedPercentile(n int, want float64) float64 {
	for _, p := range percentileLadder {
		if p <= want && float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// percentile returns the p-th percentile (nearest rank) of an ascending
// series.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(float64(len(sorted))*p/100+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// median returns the middle value of an unsorted series (mean of the two
// middle values for an even count).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// millis converts a duration series to ascending milliseconds.
func millis(d []time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, x := range d {
		out[i] = float64(x) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// latencySummary is a latency series reduced to the two numbers the
// benchmark reports: the median and the highest percentile the sample
// supports (see supportedPercentile).
type latencySummary struct {
	P50, High float64 // milliseconds
	HighPct   float64 // the percentile High was taken at
	N         int
}

func summarize(d []time.Duration) latencySummary {
	ms := millis(d)
	hp := supportedPercentile(len(ms), 99)
	return latencySummary{P50: percentile(ms, 50), High: percentile(ms, hp), HighPct: hp, N: len(ms)}
}

// quartiles returns the first and third quartile of v by the same
// "exclusive" method as Python's statistics.quantiles(v, n=4), which the
// acceptance rule for this benchmark is stated in.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}
