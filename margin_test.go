package liquid

import (
	"context"
	"errors"
	"math"
	"testing"

	"liquid/internal/adaptive"
	"liquid/internal/core"
	"liquid/internal/dynamics"
	"liquid/internal/election"
	"liquid/internal/graph"
	"liquid/internal/history"
	"liquid/internal/localsim"
	"liquid/internal/mechanism"
	"liquid/internal/recycle"
	"liquid/internal/rng"
)

// TestNaNMarginRefused feeds an approval margin of NaN to every entry point
// that refuses a negative one, on K_50: each must answer its own parameter
// error. A NaN that slipped through would make p_i + alpha NaN, which
// approves nobody, so the refusal is the only answer that names the fault.
func TestNaNMarginRefused(t *testing.T) {
	const n = 50
	p := make([]float64, n)
	for i := range p {
		p[i] = 0.3 + 0.4*float64(i)/n
	}
	in, err := core.NewInstance(graph.NewComplete(n), p)
	if err != nil {
		t.Fatal(err)
	}
	nan := math.NaN()
	ctx := context.Background()
	s := rng.New(1)
	second := func(_ any, err error) error { return err }
	// A localsim runner refuses a parameter with a ProtocolError.
	errBadParameter := errors.New("localsim: bad parameter")
	protocol := func(_ any, err error) error {
		var pe *localsim.ProtocolError
		if errors.As(err, &pe) && pe.Violation == localsim.ViolationBadParameter {
			return errBadParameter
		}
		return err
	}
	for _, tc := range []struct {
		name string
		want error
		err  error
	}{
		{"ApprovalThreshold.Apply", mechanism.ErrInvalidMechanism, second(mechanism.ApprovalThreshold{Alpha: nan}.Apply(in, s))},
		{"ApprovalThreshold.DelegateDistribution", mechanism.ErrInvalidMechanism, second(mechanism.ApprovalThreshold{Alpha: nan}.DelegateDistribution(in, 0))},
		{"HalfNeighborhood.Apply", mechanism.ErrInvalidMechanism, second(mechanism.HalfNeighborhood{Alpha: nan}.Apply(in, s))},
		{"HalfNeighborhood.DelegateDistribution", mechanism.ErrInvalidMechanism, second(mechanism.HalfNeighborhood{Alpha: nan}.DelegateDistribution(in, 0))},
		{"GreedyBest.Apply", mechanism.ErrInvalidMechanism, second(mechanism.GreedyBest{Alpha: nan}.Apply(in, s))},
		{"GreedyBest.DelegateDistribution", mechanism.ErrInvalidMechanism, second(mechanism.GreedyBest{Alpha: nan}.DelegateDistribution(in, 0))},
		{"ProbabilisticDelegation.Apply", mechanism.ErrInvalidMechanism, second(mechanism.ProbabilisticDelegation{Alpha: nan, Q: 0.5}.Apply(in, s))},
		{"ProbabilisticDelegation.DelegateDistribution", mechanism.ErrInvalidMechanism, second(mechanism.ProbabilisticDelegation{Alpha: nan, Q: 0.5}.DelegateDistribution(in, 0))},
		{"MultiDelegate.ApplyMulti", mechanism.ErrInvalidMechanism, second(mechanism.MultiDelegate{Alpha: nan, K: 2}.ApplyMulti(in, s))},
		{"NeighborSampling.Apply", mechanism.ErrInvalidMechanism, second(mechanism.NeighborSampling{Alpha: nan, D: 3}.Apply(in, s))},
		{"election.EvaluateMechanism", mechanism.ErrInvalidMechanism, second(election.EvaluateMechanism(ctx, in, mechanism.HalfNeighborhood{Alpha: nan}, election.Options{Replications: 2, Seed: 1}))},
		{"localsim.RunDelegation", errBadParameter, protocol(localsim.RunDelegation(ctx, in, nan, localsim.HalfNeighborhoodRule(), 1))},
		{"localsim.RunReliableDelegation", errBadParameter, protocol(localsim.RunReliableDelegation(ctx, in, nan, localsim.HalfNeighborhoodRule(), 1, 0))},
		{"localsim.RunReliableDelegationFaulty", errBadParameter, protocol(localsim.RunReliableDelegationFaulty(ctx, in, nan, localsim.HalfNeighborhoodRule(), 1, localsim.ReliableFaultOptions{}))},
		{"dynamics.BestResponse", dynamics.ErrInvalidDynamics, second(dynamics.BestResponse(in, dynamics.Options{Alpha: nan}))},
		{"dynamics.Churn", dynamics.ErrInvalidDynamics, second(dynamics.Churn(ctx, in, dynamics.ChurnOptions{Alpha: nan}, 1))},
		{"history.Replay", history.ErrInvalidHistory, second(history.Replay(ctx, in, mechanism.ApprovalThreshold{}, history.ReplayOptions{Alpha: nan}, 1))},
		{"adaptive.Run", adaptive.ErrInvalidSequence, second(adaptive.Run(in, adaptive.Options{Issues: 1, Alpha: nan}))},
		{"recycle.FromCompleteDelegation", recycle.ErrInvalidGraph, second(recycle.FromCompleteDelegation(in, nan, 1))},
	} {
		if !errors.Is(tc.err, tc.want) {
			t.Errorf("%s at alpha NaN: error %v, want %v", tc.name, tc.err, tc.want)
		}
	}
}
