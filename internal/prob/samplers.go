package prob

import (
	"fmt"
	"math"

	"liquid/internal/rng"
)

// Sampler draws float64 variates from a distribution.
type Sampler interface {
	Sample(s *rng.Stream) float64
}

// UniformSampler draws uniformly from [Lo, Hi).
type UniformSampler struct {
	Lo, Hi float64
}

// Sample implements Sampler.
func (u UniformSampler) Sample(s *rng.Stream) float64 {
	return u.Lo + float64((u.Hi-u.Lo)*s.Float64())
}

// ConstantSampler always returns Value.
type ConstantSampler struct {
	Value float64
}

// Sample implements Sampler.
func (c ConstantSampler) Sample(*rng.Stream) float64 { return c.Value }

// GammaSampler draws from a Gamma(Shape, 1) distribution using the
// Marsaglia-Tsang squeeze method, with Johnk-style boosting for shape < 1.
type GammaSampler struct {
	Shape float64
}

// Sample implements Sampler. It panics if Shape <= 0.
func (g GammaSampler) Sample(s *rng.Stream) float64 {
	if g.Shape <= 0 {
		panic("prob: GammaSampler requires Shape > 0")
	}
	shape := g.Shape
	boost := 1.0
	if shape < 1 {
		// Gamma(a) = Gamma(a+1) * U^{1/a}
		boost = math.Pow(s.Float64(), 1/shape)
		shape++
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = s.NormFloat64()
			v = 1 + float64(c*x)
			if v > 0 {
				break
			}
		}
		v = float64(v * v * v)
		u := s.Float64()
		if u < 1-float64(0.0331*x*x*x*x) {
			return boost * d * v
		}
		if math.Log(u) < float64(0.5*x*x)+float64(d*(1-v+math.Log(v))) {
			return boost * d * v
		}
	}
}

// BetaSampler draws from Beta(Alpha, Beta) via two gamma variates.
type BetaSampler struct {
	Alpha, Beta float64
}

// Sample implements Sampler. It panics if either parameter is <= 0.
func (b BetaSampler) Sample(s *rng.Stream) float64 {
	if b.Alpha <= 0 || b.Beta <= 0 {
		panic("prob: BetaSampler requires positive parameters")
	}
	x := GammaSampler{Shape: b.Alpha}.Sample(s)
	y := GammaSampler{Shape: b.Beta}.Sample(s)
	if x+y == 0 {
		return 0.5
	}
	return x / (x + y)
}

// TruncatedNormalSampler draws from Normal(Mu, Sigma) conditioned on
// [Lo, Hi], by rejection. Suitable when the interval holds non-negligible
// mass, which is always the case for competency vectors.
type TruncatedNormalSampler struct {
	Mu, Sigma float64
	Lo, Hi    float64
}

// Sample implements Sampler. It panics if Hi <= Lo or Sigma <= 0.
func (t TruncatedNormalSampler) Sample(s *rng.Stream) float64 {
	if t.Hi <= t.Lo || t.Sigma <= 0 {
		panic("prob: TruncatedNormalSampler requires Hi > Lo and Sigma > 0")
	}
	for i := 0; i < 10000; i++ {
		v := t.Mu + float64(t.Sigma*s.NormFloat64())
		if v >= t.Lo && v <= t.Hi {
			return v
		}
	}
	// The interval carries almost no mass; fall back to a uniform draw so
	// callers still make progress.
	return UniformSampler{Lo: t.Lo, Hi: t.Hi}.Sample(s)
}

// ClampedSampler wraps another sampler and clamps its output into
// [Lo, Hi]. Used to enforce the paper's bounded-competency restriction
// p in (beta, 1-beta) on arbitrary base distributions.
type ClampedSampler struct {
	Base   Sampler
	Lo, Hi float64
}

// Sample implements Sampler.
func (c ClampedSampler) Sample(s *rng.Stream) float64 {
	v := c.Base.Sample(s)
	if v < c.Lo {
		return c.Lo
	}
	if v > c.Hi {
		return c.Hi
	}
	return v
}

// NewCompetencySampler builds a sampler for the named competency
// distribution. Supported names:
//
//	"uniform"   — Uniform(lo, hi)
//	"beta"      — Beta(a, b) rescaled into [lo, hi]
//	"truncnorm" — Normal(mu, sigma) truncated to [lo, hi]
//
// with params interpreted per name. It returns an error for unknown names.
func NewCompetencySampler(name string, lo, hi float64, params ...float64) (Sampler, error) {
	if hi <= lo {
		return nil, fmt.Errorf("%w: competency range [%v,%v]", ErrInvalidParameter, lo, hi)
	}
	switch name {
	case "uniform":
		return UniformSampler{Lo: lo, Hi: hi}, nil
	case "beta":
		a, b := 2.0, 2.0
		if len(params) >= 2 {
			a, b = params[0], params[1]
		}
		if a <= 0 || b <= 0 {
			return nil, fmt.Errorf("%w: beta(%v,%v)", ErrInvalidParameter, a, b)
		}
		return rescaledBeta{alpha: a, beta: b, lo: lo, hi: hi}, nil
	case "truncnorm":
		mu, sigma := (lo+hi)/2, (hi-lo)/4
		if len(params) >= 2 {
			mu, sigma = params[0], params[1]
		}
		if sigma <= 0 {
			return nil, fmt.Errorf("%w: truncnorm sigma %v", ErrInvalidParameter, sigma)
		}
		return TruncatedNormalSampler{Mu: mu, Sigma: sigma, Lo: lo, Hi: hi}, nil
	default:
		return nil, fmt.Errorf("%w: unknown competency distribution %q", ErrInvalidParameter, name)
	}
}

type rescaledBeta struct {
	alpha, beta float64
	lo, hi      float64
}

func (r rescaledBeta) Sample(s *rng.Stream) float64 {
	v := BetaSampler{Alpha: r.alpha, Beta: r.beta}.Sample(s)
	return r.lo + float64((r.hi-r.lo)*v)
}
