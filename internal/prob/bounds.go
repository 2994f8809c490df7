package prob

import "math"

// HoeffdingTwoSided returns the Hoeffding upper bound on
// P[|S - E[S]| >= t] for S a sum of independent variables with ranges
// [a_i, b_i] whose squared spans sum to sumSquaredSpans:
//
//	2 * exp(-2 t^2 / sum_i (b_i - a_i)^2).
//
// This is Theorem 1 in the paper (Hoeffding's inequality).
func HoeffdingTwoSided(t, sumSquaredSpans float64) float64 {
	if t <= 0 {
		return 1
	}
	if sumSquaredSpans <= 0 {
		return 0
	}
	return clamp01(2 * math.Exp(-2*t*t/sumSquaredSpans))
}

// HoeffdingSinkBound specializes Hoeffding to the paper's Lemma 6 setting:
// at least n/w sinks, each contributing a span of at most w, giving
// P[|X - mu| >= t] <= 2 exp(-2 t^2 / (n w)). With t = sqrt(n^{1+eps}) * w the
// bound becomes 2 exp(-2 n^eps w), which vanishes for any eps > 0.
func HoeffdingSinkBound(n int, maxWeight int, t float64) float64 {
	if n <= 0 || maxWeight <= 0 {
		return 1
	}
	return HoeffdingTwoSided(t, float64(n)*float64(maxWeight))
}

// ChernoffLowerTail returns the multiplicative Chernoff upper bound on
// P[S <= (1 - delta) mu] for a sum of independent [0,1] variables with mean
// mu: exp(-delta^2 mu / 2). delta outside (0, 1] yields the trivial bound 1.
func ChernoffLowerTail(delta, mu float64) float64 {
	if delta <= 0 || mu <= 0 {
		return 1
	}
	if delta > 1 {
		delta = 1
	}
	return clamp01(math.Exp(-delta * delta * mu / 2))
}

// ChernoffUpperTail returns the multiplicative Chernoff upper bound on
// P[S >= (1 + delta) mu]: exp(-delta^2 mu / (2 + delta)) for delta > 0.
func ChernoffUpperTail(delta, mu float64) float64 {
	if delta <= 0 || mu <= 0 {
		return 1
	}
	return clamp01(math.Exp(-delta * delta * mu / (2 + delta)))
}

// FlipProbabilityBound evaluates the Lemma 3 anti-concentration bound: the
// probability that delegating d votes can change the outcome of direct
// voting is at most the normal mass of X^D in an interval of width 2*2d
// around n/2 ... bounded in the paper by erf(d / (sigma sqrt(2)/2)) with
// sigma >= sqrt(n beta(1-beta)). We expose the direct quantity: for a direct
// vote total X ~ Normal(mu, sigma), the chance the realized value falls
// within margin votes of the majority threshold n/2.
func FlipProbabilityBound(n int, mu, sigma float64, margin float64) float64 {
	if sigma <= 0 {
		return 1
	}
	half := float64(n) / 2
	dist := Normal{Mu: mu, Sigma: sigma}
	return dist.ProbInInterval(half-margin, half+margin)
}
