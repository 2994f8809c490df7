package mechanism

import (
	"fmt"

	"liquid/internal/core"
	"liquid/internal/rng"
)

// Choice is one option in a voter's delegation distribution: delegate to
// Delegate (or vote directly when Delegate == core.NoDelegate) with
// probability P.
type Choice struct {
	Delegate int
	P        float64
}

// DistributionMechanism is a mechanism that can expose the paper's raw
// object - the per-voter probability distribution over delegates - instead
// of only sampled realizations. It enables exact (enumeration-based)
// evaluation on small instances and distribution-level testing.
type DistributionMechanism interface {
	Mechanism
	// DelegateDistribution returns voter's distribution. Probabilities sum
	// to 1; the direct-voting option (core.NoDelegate) is included when it
	// has positive mass.
	DelegateDistribution(in *core.Instance, voter int) ([]Choice, error)
}

var (
	_ DistributionMechanism = Direct{}
	_ DistributionMechanism = ApprovalThreshold{}
	_ DistributionMechanism = HalfNeighborhood{}
	_ DistributionMechanism = GreedyBest{}
	_ DistributionMechanism = ProbabilisticDelegation{}
)

// DelegateDistribution implements DistributionMechanism.
func (Direct) DelegateDistribution(_ *core.Instance, _ int) ([]Choice, error) {
	return []Choice{{Delegate: core.NoDelegate, P: 1}}, nil
}

// DelegateDistribution implements DistributionMechanism.
func (m ApprovalThreshold) DelegateDistribution(in *core.Instance, voter int) ([]Choice, error) {
	if !(m.Alpha >= 0) {
		return nil, fmt.Errorf("%w: negative or NaN alpha %v", ErrInvalidMechanism, m.Alpha)
	}
	threshold := 1
	if m.Threshold != nil {
		threshold = max(m.Threshold(in.Topology().Degree(voter)), 1)
	}
	approved := in.ApprovalView(m.Alpha).Set(voter)
	if len(approved) < threshold {
		return []Choice{{Delegate: core.NoDelegate, P: 1}}, nil
	}
	return uniformChoices(approved), nil
}

// DelegateDistribution implements DistributionMechanism.
func (m HalfNeighborhood) DelegateDistribution(in *core.Instance, voter int) ([]Choice, error) {
	if !(m.Alpha >= 0) {
		return nil, fmt.Errorf("%w: negative or NaN alpha %v", ErrInvalidMechanism, m.Alpha)
	}
	deg := in.Topology().Degree(voter)
	approved := in.ApprovalView(m.Alpha).Set(voter)
	if deg == 0 || len(approved) == 0 || 2*len(approved) < deg {
		return []Choice{{Delegate: core.NoDelegate, P: 1}}, nil
	}
	return uniformChoices(approved), nil
}

// DelegateDistribution implements DistributionMechanism.
func (m GreedyBest) DelegateDistribution(in *core.Instance, voter int) ([]Choice, error) {
	if !(m.Alpha >= 0) {
		return nil, fmt.Errorf("%w: negative or NaN alpha %v", ErrInvalidMechanism, m.Alpha)
	}
	best := core.NoDelegate
	bestP := in.Competency(voter) + m.Alpha
	for _, j := range in.Topology().Neighbors(voter) {
		if p := in.Competency(j); p >= bestP && (best == core.NoDelegate || p > in.Competency(best)) {
			best = j
		}
	}
	return []Choice{{Delegate: best, P: 1}}, nil
}

func uniformChoices(approved []int) []Choice {
	out := make([]Choice, len(approved))
	p := 1 / float64(len(approved))
	for i, j := range approved {
		out[i] = Choice{Delegate: j, P: p}
	}
	return out
}

// ProbabilisticDelegation is the controlled-participation mechanism used in
// do-no-harm analyses: each voter with a nonempty approval set delegates
// with probability Q (to a uniformly random approved neighbour) and votes
// directly otherwise. Q tunes the expected number of delegations, the
// quantity Lemma 3 restricts.
type ProbabilisticDelegation struct {
	Alpha float64
	Q     float64
}

var _ Mechanism = ProbabilisticDelegation{}

// Name implements Mechanism.
func (m ProbabilisticDelegation) Name() string {
	return fmt.Sprintf("probabilistic(α=%g,q=%g)", m.Alpha, m.Q)
}

// Apply implements Mechanism.
func (m ProbabilisticDelegation) Apply(in *core.Instance, s *rng.Stream) (*core.DelegationGraph, error) {
	if err := m.validate(); err != nil {
		return nil, err
	}
	d := core.NewDelegationGraph(in.N())
	view := in.ApprovalView(m.Alpha)
	for i := 0; i < in.N(); i++ {
		if !s.Bernoulli(m.Q) {
			continue
		}
		j, ok := view.Sample(i, s)
		if !ok {
			continue
		}
		if err := d.SetDelegate(i, j); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// DelegateDistribution implements DistributionMechanism.
func (m ProbabilisticDelegation) DelegateDistribution(in *core.Instance, voter int) ([]Choice, error) {
	if err := m.validate(); err != nil {
		return nil, err
	}
	approved := in.ApprovalView(m.Alpha).Set(voter)
	if len(approved) == 0 || m.Q == 0 {
		return []Choice{{Delegate: core.NoDelegate, P: 1}}, nil
	}
	out := make([]Choice, 0, len(approved)+1)
	if m.Q < 1 {
		out = append(out, Choice{Delegate: core.NoDelegate, P: 1 - m.Q})
	}
	p := m.Q / float64(len(approved))
	for _, j := range approved {
		out = append(out, Choice{Delegate: j, P: p})
	}
	return out, nil
}

func (m ProbabilisticDelegation) validate() error {
	if !(m.Alpha >= 0) {
		return fmt.Errorf("%w: negative or NaN alpha %v", ErrInvalidMechanism, m.Alpha)
	}
	if m.Q < 0 || m.Q > 1 {
		return fmt.Errorf("%w: delegation probability %v not in [0,1]", ErrInvalidMechanism, m.Q)
	}
	return nil
}
