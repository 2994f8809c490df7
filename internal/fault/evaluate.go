package fault

import (
	"context"
	"fmt"

	"liquid/internal/core"
	"liquid/internal/election"
	"liquid/internal/mechanism"
	"liquid/internal/rng"
)

// ElectionOptions configures EvaluateUnderFaults. The embedded
// election.Options carries Replications, VoteSamples, ExactCostLimit,
// Workers, and Seed with the same defaults.
type ElectionOptions struct {
	election.Options
	// DownRate marks each voter independently unavailable with this
	// probability (sink-unavailability fault).
	DownRate float64
	// AbstainRate additionally withdraws each voter's own unit with this
	// probability (abstention fault).
	AbstainRate float64
	// Policy is the recovery policy applied to the faulty graph.
	Policy Policy
	// Alpha is the approval margin used to validate Redelegate targets.
	Alpha float64
}

// ElectionResult summarizes a mechanism evaluation under election-level
// faults.
type ElectionResult struct {
	Mechanism string
	Policy    Policy
	N         int

	// PM is the probability the faulty mechanism outcome decides correctly,
	// averaged over mechanism and fault randomness (exact in the votes);
	// PMStdErr is its standard error.
	PM       float64
	PMStdErr float64
	// PD is the fault-free direct-voting baseline P^D(G), so
	// Gain = PM - PD measures how much of do-no-harm survives the faults.
	PD   float64
	Gain float64

	// MeanDown / MeanLost / MeanFellBack / MeanRedelegated average the
	// fault footprint per replication.
	MeanDown        float64
	MeanLost        float64
	MeanFellBack    float64
	MeanRedelegated float64
}

// Repair returns the options' election-level faults as an
// election.Repair on instance in: each replication marks voters down and
// abstaining from its stream's "down" and "abstain" children, then
// repairs the realization with ApplyPolicy, redelegating from its
// "redelegate" child. Rates outside [0, 1) are an error.
func (o ElectionOptions) Repair(in *core.Instance) (election.Repair, error) {
	if o.DownRate < 0 || o.DownRate >= 1 {
		return nil, fmt.Errorf("fault: down rate %v not in [0, 1)", o.DownRate)
	}
	if o.AbstainRate < 0 || o.AbstainRate >= 1 {
		return nil, fmt.Errorf("fault: abstain rate %v not in [0, 1)", o.AbstainRate)
	}
	return func(d *core.DelegationGraph, s *rng.Stream) (election.Repaired, error) {
		down, downCount := mark(in.N(), o.DownRate, s, "down")
		abstain, _ := mark(in.N(), o.AbstainRate, s, "abstain")
		rec, err := ApplyPolicy(in, d, down, abstain, o.Policy, o.Alpha, s.DeriveString("redelegate"))
		if err != nil {
			return election.Repaired{}, err
		}
		return election.Repaired{Graph: rec.Graph, Weights: rec.Weights, Faults: election.FaultCounts{
			Down: downCount, Lost: rec.Lost, FellBack: rec.FellBack, Redelegated: rec.Redelegated,
		}}, nil
	}, nil
}

// mark flags each of n voters independently with probability rate, drawn
// from s's label child, and counts the flags. A zero rate draws nothing
// and returns nil.
func mark(n int, rate float64, s *rng.Stream, label string) ([]bool, int) {
	var flags []bool
	count := 0
	if rate > 0 {
		ms := s.DeriveString(label)
		flags = make([]bool, n)
		for v := range flags {
			flags[v] = ms.Bernoulli(rate)
			if flags[v] {
				count++
			}
		}
	}
	return flags, count
}

// SweepPoint is one fault-evaluation configuration of a sweep: a mechanism
// plus its full per-point options (the fault engine's points differ in
// rates and policies, not just seeds, so the whole option set is per-point).
type SweepPoint struct {
	Mechanism mechanism.Mechanism
	Opts      ElectionOptions
}

// EvaluateSweep evaluates points against one instance as one election
// sweep: each point becomes an election.SweepPoint carrying its options'
// Repair, with its own Seed and Replications (0 still means 64), on one
// election.Plan whose VoteSamples, ExactCostLimit and Workers are the
// first point's. A point whose options differ from the first point's in
// those three fields is an error. The plan's resolution-score cache
// memoizes pure functions of canonical voter multisets (see
// election/cache.go), so results are bit-identical to calling
// EvaluateUnderFaults once per point. The sharing is what makes the R1
// grid cheap: policies repair the same realizations at a fixed rate
// (common random numbers), so their resolved multisets collide constantly
// across points.
func EvaluateSweep(ctx context.Context, in *core.Instance, points []SweepPoint) ([]*ElectionResult, error) {
	results := make([]*ElectionResult, len(points))
	if len(points) == 0 {
		return results, nil
	}
	first := points[0].Opts.Options
	plan, err := election.NewPlan(in, election.Options{
		VoteSamples:    first.VoteSamples,
		ExactCostLimit: first.ExactCostLimit,
		Workers:        first.Workers,
	})
	if err != nil {
		return nil, err
	}
	sweep := make([]election.SweepPoint, len(points))
	for i, pt := range points {
		o := pt.Opts
		if o.VoteSamples != first.VoteSamples || o.ExactCostLimit != first.ExactCostLimit || o.Workers != first.Workers {
			return nil, fmt.Errorf("fault: sweep point %d's VoteSamples, ExactCostLimit or Workers differ from point 0's", i)
		}
		repair, err := o.Repair(in)
		if err != nil {
			return nil, err
		}
		sweep[i] = election.SweepPoint{
			Mechanism:              pt.Mechanism,
			Seed:                   o.Seed,
			Replications:           o.Replications,
			DisableResolutionCache: o.DisableResolutionCache,
			Repair:                 repair,
		}
	}
	evaluated, err := election.EvaluateSweep(ctx, plan, sweep)
	if err != nil {
		return nil, err
	}
	for i, res := range evaluated {
		results[i] = &ElectionResult{
			Mechanism: res.Mechanism, Policy: points[i].Opts.Policy, N: res.N,
			PM: res.PM, PMStdErr: res.PMStdErr, PD: res.PD, Gain: res.Gain,
			MeanDown: res.MeanDown, MeanLost: res.MeanLost,
			MeanFellBack: res.MeanFellBack, MeanRedelegated: res.MeanRedelegated,
		}
	}
	return results, nil
}

// EvaluateUnderFaults estimates P^M(G) under sink-unavailability and
// abstention faults repaired by the configured recovery policy, with the
// fault-free P^D(G) as the do-no-harm baseline. It is a one-point sweep, so
// it runs on the election Plan's replication loop: replication r's
// realization, faults and repair all derive from the stream
// root.Derive(r+1) of the seed, and results are bit-identical regardless
// of Workers. Batch related configurations through EvaluateSweep to share
// the exact-score cache across them.
func EvaluateUnderFaults(ctx context.Context, in *core.Instance, mech mechanism.Mechanism, opts ElectionOptions) (*ElectionResult, error) {
	results, err := EvaluateSweep(ctx, in, []SweepPoint{{Mechanism: mech, Opts: opts}})
	if err != nil {
		return nil, err
	}
	return results[0], nil
}
