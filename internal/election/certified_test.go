package election_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"liquid/internal/core"
	"liquid/internal/election"
	"liquid/internal/fault"
	"liquid/internal/graph"
	"liquid/internal/mechanism"
	"liquid/internal/rng"
)

func approxTestInstance(t *testing.T, n int, seed uint64) *core.Instance {
	t.Helper()
	s := rng.New(seed)
	p := make([]float64, n)
	for i := range p {
		p[i] = 0.3 + 0.19*s.Float64()
	}
	in, err := core.NewInstance(graph.NewComplete(n), p)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// certifiedSweep runs one point through EvaluateSweepCertified.
func certifiedSweep(ctx context.Context, in *core.Instance, mech mechanism.Mechanism, opts election.Options) (*election.Result, error) {
	plan, err := election.NewPlan(in, opts)
	if err != nil {
		return nil, err
	}
	results, err := election.EvaluateSweepCertified(ctx, plan, []election.SweepPoint{{Mechanism: mech, Seed: opts.Seed}})
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// TestApproxWithinCertifiedBound is the degraded sweep's correctness
// contract: its PD and PM must sit within their certified half-widths of
// the exact sweep's, for the same seed (same realizations, scored by DP on
// one side and by certified normal intervals on the other). The inputs are
// a plain point and a repaired one (fault injection, whose weighted
// resolutions the certified scorer must cover too).
func TestApproxWithinCertifiedBound(t *testing.T) {
	in := approxTestInstance(t, 301, 7)
	mech := mechanism.ApprovalThreshold{Alpha: 0.05}
	repair, err := fault.ElectionOptions{DownRate: 0.2, AbstainRate: 0.1, Policy: fault.Redelegate, Alpha: 0.05}.Repair(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, repair := range []election.Repair{nil, repair} {
		for _, workers := range []int{1, 4} {
			plan, err := election.NewPlan(in, election.Options{Replications: 16, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			points := []election.SweepPoint{{Mechanism: mech, Seed: 11, Repair: repair}}
			exacts, err := election.EvaluateSweep(context.Background(), plan, points)
			if err != nil {
				t.Fatal(err)
			}
			approxes, err := election.EvaluateSweepCertified(context.Background(), plan, points)
			if err != nil {
				t.Fatal(err)
			}
			exact, approx := exacts[0], approxes[0]
			bound := approx.PDHalfWidth + approx.PMHalfWidth
			if approx.PDHalfWidth <= 0 || approx.PMHalfWidth <= 0 || bound > 1 {
				t.Fatalf("half-widths PD %g PM %g, want positive with a sum in (0, 1]", approx.PDHalfWidth, approx.PMHalfWidth)
			}
			if exact.PDHalfWidth != 0 || exact.PMHalfWidth != 0 {
				t.Fatalf("exact sweep reports half-widths PD %g PM %g", exact.PDHalfWidth, exact.PMHalfWidth)
			}
			if diff := math.Abs(exact.PD - approx.PD); diff > approx.PDHalfWidth {
				t.Fatalf("|PD diff| = %g exceeds certified %g", diff, approx.PDHalfWidth)
			}
			if diff := math.Abs(exact.PM - approx.PM); diff > approx.PMHalfWidth {
				t.Fatalf("|PM diff| = %g exceeds certified %g", diff, approx.PMHalfWidth)
			}
			if diff := math.Abs(exact.Gain - approx.Gain); diff > bound {
				t.Fatalf("|gain diff| = %g exceeds certified %g", diff, bound)
			}
			// The realizations themselves are exact, so the structural
			// statistics and fault footprint must agree bit-for-bit with the
			// exact evaluator's.
			if exact.MeanDelegators != approx.MeanDelegators ||
				exact.MeanSinks != approx.MeanSinks ||
				exact.MeanMaxWeight != approx.MeanMaxWeight ||
				exact.MaxMaxWeight != approx.MaxMaxWeight ||
				exact.MeanLongestChain != approx.MeanLongestChain ||
				exact.MeanDown != approx.MeanDown ||
				exact.MeanLost != approx.MeanLost ||
				exact.MeanFellBack != approx.MeanFellBack ||
				exact.MeanRedelegated != approx.MeanRedelegated {
				t.Fatalf("structural stats diverge: exact %+v approx %+v", exact, approx)
			}
			if (repair != nil) != (exact.MeanLost > 0) {
				t.Fatalf("repaired=%v but MeanLost = %v", repair != nil, exact.MeanLost)
			}
		}
	}
}

// TestApproxDeterministic: the degraded sweep is a pure function of the
// seed, and runs in the replication pool without its Workers value
// reaching any result.
func TestApproxDeterministic(t *testing.T) {
	in := approxTestInstance(t, 150, 9)
	mech := mechanism.ApprovalThreshold{Alpha: 0.05}
	var ref *election.Result
	for _, workers := range []int{1, 1, 3, 8} {
		res, err := certifiedSweep(context.Background(), in, mech, election.Options{Replications: 8, Seed: 5, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if *res != *ref {
			t.Fatalf("workers=%d diverged:\n%+v\n%+v", workers, res, ref)
		}
	}
}

func TestApproxCancellation(t *testing.T) {
	in := approxTestInstance(t, 100, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := certifiedSweep(ctx, in, mechanism.Direct{}, election.Options{Replications: 4, Seed: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context: err = %v, want context.Canceled", err)
	}
}

// TestCertifyResolution: the certified normal interval of one resolved
// outcome contains its exact DP score.
func TestCertifyResolution(t *testing.T) {
	in := approxTestInstance(t, 201, 13)
	d := core.NewDelegationGraph(in.N())
	// A couple of concrete delegations toward higher-competency voters.
	order := in.CompetencyOrder()
	top := order[len(order)-1]
	for i := 0; i < 20; i++ {
		v := order[i]
		if v == top {
			continue
		}
		if err := d.SetDelegate(v, top); err != nil {
			t.Fatal(err)
		}
	}
	res, err := d.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	exact, err := election.ResolutionProbabilityExact(in, res)
	if err != nil {
		t.Fatal(err)
	}
	if ci := election.CertifyResolution(in, res); !ci.Contains(exact) || ci.HalfWidth <= 0 {
		t.Fatalf("interval [%v, %v] (±%v) does not certify exact %v", ci.Lo(), ci.Hi(), ci.HalfWidth, exact)
	}
}
