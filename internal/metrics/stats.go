// Package metrics provides the measurement instruments shared by all SODA
// experiments: streaming summaries, latency histograms, time series, and
// plain-text table rendering for regenerating the paper's tables/figures.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Summary accumulates a stream of float64 observations with Welford's
// online algorithm, so mean and variance are numerically stable without
// retaining samples.
type Summary struct {
	n        int64
	mean     float64
	m2       float64
	min, max float64
	sum      float64
}

// Observe adds one observation.
func (s *Summary) Observe(v float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = v, v
	} else {
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
	}
	s.sum += v
	delta := v - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (v - s.mean)
}

// Count returns the number of observations.
func (s *Summary) Count() int64 { return s.n }

// Sum returns the sum of all observations.
func (s *Summary) Sum() float64 { return s.sum }

// Mean returns the arithmetic mean, or 0 with no observations.
func (s *Summary) Mean() float64 { return s.mean }

// Variance returns the sample variance, or 0 with fewer than 2 observations.
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Stddev returns the sample standard deviation.
func (s *Summary) Stddev() float64 { return math.Sqrt(s.Variance()) }

// Min returns the smallest observation, or 0 with none.
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation, or 0 with none.
func (s *Summary) Max() float64 { return s.max }

// RelStddev returns the coefficient of variation (stddev/mean), or 0 when
// the mean is 0.
func (s *Summary) RelStddev() float64 {
	if s.mean == 0 {
		return 0
	}
	return s.Stddev() / math.Abs(s.mean)
}

// String renders "mean ± stddev [min, max] (n=...)".
func (s *Summary) String() string {
	return fmt.Sprintf("%.4g ± %.2g [%.4g, %.4g] (n=%d)", s.Mean(), s.Stddev(), s.Min(), s.Max(), s.n)
}

// Merge folds other into s, as if every observation of other had been
// observed by s (Chan et al. parallel variance combination).
func (s *Summary) Merge(other *Summary) {
	if other.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *other
		return
	}
	delta := other.mean - s.mean
	total := s.n + other.n
	s.m2 += other.m2 + delta*delta*float64(s.n)*float64(other.n)/float64(total)
	s.mean += delta * float64(other.n) / float64(total)
	s.sum += other.sum
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
	s.n = total
}

// DurationSummary wraps Summary for time.Duration observations, reporting
// results as durations.
type DurationSummary struct {
	Summary
}

// ObserveDuration adds one duration observation.
func (d *DurationSummary) ObserveDuration(v time.Duration) { d.Observe(float64(v)) }

// MeanDuration returns the mean as a duration.
func (d *DurationSummary) MeanDuration() time.Duration { return time.Duration(d.Mean()) }

// MinDuration returns the minimum as a duration.
func (d *DurationSummary) MinDuration() time.Duration { return time.Duration(d.Min()) }

// MaxDuration returns the maximum as a duration.
func (d *DurationSummary) MaxDuration() time.Duration { return time.Duration(d.Max()) }

// Quantiler retains all samples and answers arbitrary quantile queries
// exactly. SODA experiments are small enough (≤ millions of samples) that
// exact quantiles are affordable and reproducible.
type Quantiler struct {
	samples []float64
	sorted  bool
}

// Observe adds one sample.
func (q *Quantiler) Observe(v float64) {
	q.samples = append(q.samples, v)
	q.sorted = false
}

// Count returns the number of samples.
func (q *Quantiler) Count() int { return len(q.samples) }

// Quantile returns the p-quantile (0 ≤ p ≤ 1) by linear interpolation
// between closest ranks. It returns 0 with no samples.
func (q *Quantiler) Quantile(p float64) float64 {
	n := len(q.samples)
	if n == 0 {
		return 0
	}
	if !q.sorted {
		sort.Float64s(q.samples)
		q.sorted = true
	}
	if p <= 0 {
		return q.samples[0]
	}
	if p >= 1 {
		return q.samples[n-1]
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return q.samples[lo]
	}
	frac := pos - float64(lo)
	return q.samples[lo]*(1-frac) + q.samples[hi]*frac
}

// Median returns the 0.5-quantile.
func (q *Quantiler) Median() float64 { return q.Quantile(0.5) }
