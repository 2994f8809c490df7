package prob

import (
	"math"
	"sort"
)

// Summary accumulates streaming descriptive statistics using Welford's
// algorithm. The zero value is ready to use.
type Summary struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// AddAll incorporates a slice of observations.
func (s *Summary) AddAll(xs []float64) {
	for _, x := range xs {
		s.Add(x)
	}
}

// N returns the number of observations.
func (s *Summary) N() int { return s.n }

// Mean returns the sample mean (0 for an empty summary).
func (s *Summary) Mean() float64 { return s.mean }

// Variance returns the unbiased sample variance (0 for n < 2).
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// StdErr returns the standard error of the mean.
func (s *Summary) StdErr() float64 {
	if s.n == 0 {
		return 0
	}
	return s.StdDev() / math.Sqrt(float64(s.n))
}

// Min returns the smallest observation (0 for an empty summary).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation (0 for an empty summary).
func (s *Summary) Max() float64 { return s.max }

// MeanCI returns a normal-approximation confidence interval for the mean at
// the given confidence level (e.g. 0.95).
func (s *Summary) MeanCI(level float64) (lo, hi float64) {
	if s.n == 0 {
		return 0, 0
	}
	z := Normal{Mu: 0, Sigma: 1}.Quantile(0.5 + level/2)
	h := z * s.StdErr()
	return s.mean - h, s.mean + h
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It does not modify xs.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	if q <= 0 {
		return cp[0]
	}
	if q >= 1 {
		return cp[len(cp)-1]
	}
	pos := q * float64(len(cp)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(cp) {
		return cp[len(cp)-1]
	}
	return cp[lo]*(1-frac) + cp[lo+1]*frac
}

// WilsonInterval returns the Wilson score interval for a binomial proportion
// with successes out of trials at the given confidence level. It is accurate
// for small counts and proportions near 0 or 1, which is the regime of
// rare-event estimates like DNH violation rates.
func WilsonInterval(successes, trials int, level float64) (lo, hi float64) {
	if trials <= 0 {
		return 0, 1
	}
	z := Normal{Mu: 0, Sigma: 1}.Quantile(0.5 + level/2)
	n := float64(trials)
	p := float64(successes) / n
	z2 := z * z
	denom := 1 + z2/n
	center := (p + z2/(2*n)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/n+z2/(4*n*n))
	return clamp01(center - half), clamp01(center + half)
}

// Histogram is a fixed-width-bin histogram over [Lo, Hi).
type Histogram struct {
	Lo, Hi float64
	Counts []int
	under  int
	over   int
	total  int
}

// NewHistogram creates a histogram with bins equal-width bins over [lo, hi).
// It panics if bins <= 0 or hi <= lo.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 || hi <= lo {
		panic("prob: NewHistogram requires bins > 0 and hi > lo")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// Add records one observation; values outside [Lo, Hi) are counted in
// underflow/overflow buckets.
func (h *Histogram) Add(x float64) {
	h.total++
	switch {
	case x < h.Lo:
		h.under++
	case x >= h.Hi:
		h.over++
	default:
		i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
		if i >= len(h.Counts) { // guard float rounding at the top edge
			i = len(h.Counts) - 1
		}
		h.Counts[i]++
	}
}

// Total returns the total number of observations, including out-of-range.
func (h *Histogram) Total() int { return h.total }

// OutOfRange returns the underflow and overflow counts.
func (h *Histogram) OutOfRange() (under, over int) { return h.under, h.over }

// Mean of float64 slice; returns 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (0 for len < 2).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s Accumulator
	for _, x := range xs {
		d := x - m
		s.Add(d * d)
	}
	return s.Sum() / float64(len(xs)-1)
}
