package mechanism

import (
	"fmt"

	"liquid/internal/core"
	"liquid/internal/rng"
)

// NeighborSampling is Algorithm 2: every voter samples D random other
// voters (this is what creates the Rand(n, d) interaction graph), checks
// whether at least Threshold(D) of them are approved, and if so delegates
// to a uniformly random approved sampled voter.
//
// The mechanism ignores the instance's topology edges because, per the
// paper, the random graph is generated by the mechanism itself after the
// competency vector is assigned.
type NeighborSampling struct {
	// Alpha is the approval margin.
	Alpha float64
	// D is the number of random neighbours each voter samples.
	D int
	// Threshold is j(d), evaluated at D; nil means 1 (delegate whenever an
	// approved sample exists).
	Threshold ThresholdFunc
}

var _ Mechanism = NeighborSampling{}

// Name implements Mechanism.
func (m NeighborSampling) Name() string {
	return fmt.Sprintf("neighbor-sampling(α=%g,d=%d)", m.Alpha, m.D)
}

// Apply implements Mechanism.
func (m NeighborSampling) Apply(in *core.Instance, s *rng.Stream) (*core.DelegationGraph, error) {
	if !(m.Alpha >= 0) {
		return nil, fmt.Errorf("%w: negative or NaN alpha %v", ErrInvalidMechanism, m.Alpha)
	}
	n := in.N()
	if m.D < 1 || m.D >= n {
		return nil, fmt.Errorf("%w: d = %d must be in [1, n) for n = %d", ErrInvalidMechanism, m.D, n)
	}
	threshold := 1
	if m.Threshold != nil {
		threshold = max(m.Threshold(m.D), 1)
	}
	d := core.NewDelegationGraph(n)
	var sample []int
	for i := 0; i < n; i++ {
		// Sample D distinct voters other than i: draw from [0, n-1) and
		// skip over i by shifting.
		sample = s.AppendSampleWithoutReplacement(sample[:0], n-1, m.D)
		approved := 0
		pick := core.NoDelegate
		threshVal := in.Competency(i) + m.Alpha
		for _, raw := range sample {
			j := raw
			if j >= i {
				j++
			}
			if in.Competency(j) < threshVal {
				continue
			}
			approved++
			if s.IntN(approved) == 0 {
				pick = j
			}
		}
		if approved < threshold || pick == core.NoDelegate {
			continue
		}
		if err := d.SetDelegate(i, pick); err != nil {
			return nil, err
		}
	}
	return d, nil
}
