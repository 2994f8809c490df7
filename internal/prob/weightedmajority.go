package prob

import (
	"fmt"
	"math"
)

// The exact-distribution API. P^M is the majority mass of the correct
// weight W = sum_i Weight_i * Bernoulli(P_i) over a resolution's sinks, and
// P^D that of the all-direct profile's unit voters (UnitVoters).
// Workspace.PMF computes W's distribution on the convolution engine,
// PMFNaive is the reference DP, and MajorityMass reads the probability of a
// correct decision off either.

// WeightedVoter is one independent Bernoulli voter with an integer vote
// weight. In the delegation setting a voter is a sink of the delegation
// graph and its weight counts the votes delegated to it (including itself).
type WeightedVoter struct {
	Weight int
	P      float64
}

// validateVoters checks weights >= 1 and probabilities in [0, 1], and
// returns the total weight.
func validateVoters(voters []WeightedVoter) (int, error) {
	total := 0
	for i, v := range voters {
		if v.Weight < 1 {
			return 0, fmt.Errorf("%w: voter %d has weight %d < 1", ErrInvalidParameter, i, v.Weight)
		}
		if v.P < 0 || v.P > 1 || math.IsNaN(v.P) {
			return 0, fmt.Errorf("%w: voter %d has p = %v not in [0,1]", ErrInvalidParameter, i, v.P)
		}
		total += v.Weight
	}
	return total, nil
}

// validateProbs checks every probability lies in [0, 1].
func validateProbs(ps []float64) error {
	for i, p := range ps {
		if p < 0 || p > 1 || math.IsNaN(p) {
			return fmt.Errorf("%w: p[%d] = %v not in [0,1]", ErrInvalidParameter, i, p)
		}
	}
	return nil
}

// PMF validates voters (weights >= 1, probabilities in [0, 1]) and returns
// f with f[t] = P[W = t] for t in [0, total weight], computed into ws
// memory: the result is valid until the next kernel call on ws. Above the
// cost-model crossover the voter set is split weight-balanced and the
// halves are merged by FFT convolution; below it the in-place DP runs. The
// bits depend on the voters and their order only, never on ws's history.
func (ws *Workspace) PMF(voters []WeightedVoter) ([]float64, error) {
	if _, err := validateVoters(voters); err != nil {
		return nil, err
	}
	return ws.pmf(nil, voters, 1) // sequential: cannot fail
}

// UnitVoters refills the workspace's unit-voter buffer with one weight-1
// voter per probability in ps: direct voting as the engine sees it. The
// buffer is its own, so it never collides with voters a caller built in
// VoterBuffer or SortVotersByWeight, and it is invalidated by the next
// UnitVoters call on ws.
func (ws *Workspace) UnitVoters(ps []float64) []WeightedVoter {
	ws.units = appendUnitVoters(ws.units[:0], ps)
	return ws.units
}

// PMFNaive validates voters and returns their PMF via the plain
// O(|voters| * total weight) DP with no divide-and-conquer, whatever the
// size, into a fresh slice. It is the reference the engine is checked
// against.
func PMFNaive(voters []WeightedVoter) ([]float64, error) {
	total, err := validateVoters(voters)
	if err != nil {
		return nil, err
	}
	f := make([]float64, total+1)
	dpInto(f, voters)
	return f, nil
}

// MajorityMass returns the probability that the correct weight strictly
// exceeds half the total, P[W > T/2] = P[2W > T] for the PMF f over
// [0, T]: the paper's Section 2.2 rule, under which an exact tie loses.
// The tie's own mass, for even T, is f[T/2].
func MajorityMass(f []float64) float64 {
	return clamp01(Sum(f[(len(f)-1)/2+1:]))
}
