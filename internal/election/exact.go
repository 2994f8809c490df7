package election

import (
	"errors"
	"fmt"

	"liquid/internal/core"
	"liquid/internal/mechanism"
	"liquid/internal/prob"
)

// ErrTooManyOutcomes reports that exhaustive enumeration would exceed the
// configured state budget.
var ErrTooManyOutcomes = errors.New("election: too many delegation outcomes to enumerate")

// ExactMechanismProbability computes P^M(G) with no sampling error at all:
// it enumerates every possible delegation graph the mechanism can produce
// (the product of the per-voter distributions), weights each by its
// probability, and scores it with the exact weighted-majority DP.
//
// The number of combinations is the product of the voters' choice-set
// sizes; enumeration aborts with ErrTooManyOutcomes once it would exceed
// maxOutcomes (default 1 << 20 if <= 0). Intended for small instances and
// for validating the sampling engine.
func ExactMechanismProbability(in *core.Instance, mech mechanism.DistributionMechanism, maxOutcomes int64) (float64, error) {
	n := in.N()
	if n == 0 {
		return 0, ErrNoVoters
	}
	if maxOutcomes <= 0 {
		maxOutcomes = 1 << 20
	}

	dists := make([][]mechanism.Choice, n)
	total := int64(1)
	for v := 0; v < n; v++ {
		d, err := mech.DelegateDistribution(in, v)
		if err != nil {
			return 0, err
		}
		if len(d) == 0 {
			return 0, fmt.Errorf("mechanism %q returned empty distribution for voter %d", mech.Name(), v)
		}
		var sum prob.Accumulator
		for _, c := range d {
			if c.P < 0 {
				return 0, fmt.Errorf("mechanism %q returned negative probability for voter %d", mech.Name(), v)
			}
			sum.Add(c.P)
		}
		if s := sum.Sum(); s < 1-1e-9 || s > 1+1e-9 {
			return 0, fmt.Errorf("mechanism %q distribution for voter %d sums to %v", mech.Name(), v, s)
		}
		dists[v] = d
		if total > maxOutcomes/int64(len(d)) {
			return 0, fmt.Errorf("%w: more than %d combinations", ErrTooManyOutcomes, maxOutcomes)
		}
		total *= int64(len(d))
	}

	dg := core.NewDelegationGraph(n)
	// One workspace and cache for the whole enumeration: distinct delegation
	// graphs frequently resolve to the same weight/competency multiset, so
	// memoization collapses the scoring cost of the product space.
	ws := prob.NewWorkspace()
	rv := new(core.Resolver)
	scores := NewScoreCache()
	var acc prob.Accumulator
	var enumerate func(v int, weight float64) error
	enumerate = func(v int, weight float64) error {
		if weight == 0 {
			return nil
		}
		if v == n {
			res, err := rv.Resolve(dg, in.CompetencyOrder())
			if err != nil {
				return err
			}
			pm, err := ResolutionProbabilityExactCached(in, res, ws, scores)
			if err != nil {
				return err
			}
			acc.Add(weight * pm)
			return nil
		}
		for _, c := range dists[v] {
			if c.Delegate == core.NoDelegate {
				dg.Delegate[v] = core.NoDelegate
			} else if err := dg.SetDelegate(v, c.Delegate); err != nil {
				return err
			}
			if err := enumerate(v+1, weight*c.P); err != nil {
				return err
			}
		}
		dg.Delegate[v] = core.NoDelegate
		return nil
	}
	if err := enumerate(0, 1); err != nil {
		return 0, err
	}
	return acc.Sum(), nil
}
