package main

import (
	"math"
	"sort"
)

// minBeyond is the percentile rule: a reported tail percentile must leave
// at least this many samples above it.
const minBeyond = 10

// tailLadder lists the percentiles a tail is chosen from, lowest first.
var tailLadder = []float64{0.5, 0.9, 0.95, 0.99, 0.999, 0.9999}

// rank returns the 1-based nearest-rank position of quantile q in n
// samples.
func rank(q float64, n int) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond returns how many of n samples lie above the nearest-rank
// q-quantile.
func beyond(q float64, n int) int { return n - rank(q, n) }

// tailLevel returns the highest ladder percentile that leaves at least
// minBeyond samples above it in n samples, or 0 when even the median does
// not.
func tailLevel(n int) float64 {
	level := 0.0
	for _, q := range tailLadder {
		if n > 0 && beyond(q, n) >= minBeyond {
			level = q
		}
	}
	return level
}

// quantile returns the nearest-rank q-quantile of xs, sorting xs in place.
// It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rank(q, len(xs))-1]
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count) without reordering the caller's slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs, 0 for none.
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

// timing summarises one batch of latency samples by the percentile rule:
// the median, plus the highest ladder percentile with at least minBeyond
// samples above it, and the sample count.
type timing struct {
	P50   float64
	Tail  float64
	Level float64
	N     int
}

// summarize applies the percentile rule to xs (sorted in place).
func summarize(xs []float64) timing {
	t := timing{N: len(xs), Level: tailLevel(len(xs))}
	if t.N == 0 {
		return t
	}
	t.P50 = quantile(xs, 0.5)
	if t.Level > 0 {
		t.Tail = quantile(xs, t.Level)
	} else {
		t.Tail = xs[len(xs)-1]
	}
	return t
}

// combine summarises batches of samples of equal size: the median of all
// samples pooled, and the median over batches of each batch's rule
// percentile. Pooling keeps the median moving smoothly when the host's
// speed drifts between batches; taking the tail per batch keeps a stall
// that hits one batch from setting it.
func combine(batches [][]float64) timing {
	var t timing
	var all, tails []float64
	for _, b := range batches {
		all = append(all, b...)
		bt := summarize(append([]float64(nil), b...))
		tails = append(tails, bt.Tail)
		t.Level = bt.Level
	}
	t.N = len(all)
	t.P50 = quantile(all, 0.5)
	t.Tail = median(tails)
	return t
}

// windows cuts every batch into consecutive windows of n samples, the
// remainder of a batch shorter than n dropped. The windows share the
// batches' storage.
func windows(batches [][]float64, n int) [][]float64 {
	var ws [][]float64
	for _, b := range batches {
		for i := 0; i+n <= len(b); i += n {
			ws = append(ws, b[i:i+n])
		}
	}
	return ws
}

// failRatio is failed operations over attempted operations; nothing
// attempted counts as nothing failed.
func failRatio(attempted, failed int64) float64 {
	if attempted <= 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
