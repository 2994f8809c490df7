package history

// Replay is the evolving-history experiment driver: an election sequence
// in which voters accumulate track records issue by issue, the surrogate
// (observed-accuracy) instance drifts a few competencies per period, and
// mechanisms are re-evaluated against the drifting surrogate. The
// surrogate plan advances through election.Plan.ApplyDelta — one sparse
// competency-delta batch per period, sharing one score cache across the
// replay — while remaining bit-identical to rebuilding the plan from
// scratch every period (the R4 experiment re-verifies this per period
// using each step's EvalSeed and Competencies snapshot).

import (
	"context"
	"fmt"
	"strconv"

	"liquid/internal/core"
	"liquid/internal/election"
	"liquid/internal/mechanism"
	"liquid/internal/rng"
)

// ReplayOptions configures an election-sequence replay.
type ReplayOptions struct {
	// Periods is the number of recorded election periods (default 10).
	Periods int
	// IssuesPerPeriod is the number of observed issues between elections
	// (default 4).
	IssuesPerPeriod int
	// Participation is each voter's per-issue participation probability
	// (default 0.5).
	Participation float64
	// Alpha is the approval margin used for misdelegation accounting.
	Alpha float64
	// Replications and Workers configure the per-period mechanism
	// evaluation (defaults follow election.Options).
	Replications int
	Workers      int
}

func (o ReplayOptions) withDefaults() (ReplayOptions, error) {
	if o.Periods <= 0 {
		o.Periods = 10
	}
	if o.IssuesPerPeriod <= 0 {
		o.IssuesPerPeriod = 4
	}
	if o.Participation == 0 {
		o.Participation = 0.5
	}
	if o.Participation < 0 || o.Participation > 1 {
		return o, fmt.Errorf("%w: participation %v not in [0,1]", ErrInvalidHistory, o.Participation)
	}
	if !(o.Alpha >= 0) {
		return o, fmt.Errorf("%w: negative or NaN alpha %v", ErrInvalidHistory, o.Alpha)
	}
	return o, nil
}

// ReplayStep records one period of a replay.
type ReplayStep struct {
	// Period is the step index (0-based).
	Period int
	// SurrogatePD and SurrogatePM are the mechanism evaluation against
	// the period's surrogate instance (exact P^D, replicated P^M).
	SurrogatePD float64
	SurrogatePM float64
	// TruthPM scores one surrogate-informed delegation profile against
	// the TRUE competencies, exactly.
	TruthPM float64
	// Misdelegation is the fraction of that profile's delegation edges
	// not truly approved at Alpha.
	Misdelegation float64
	// EvalSeed is the seed the period's evaluation used; together with
	// Competencies it lets a verifier rebuild the period from scratch.
	EvalSeed     uint64
	Competencies []float64
}

// Replay runs an election sequence over a growing partial-participation
// history. Per period: IssuesPerPeriod issues are observed (each voter
// participating with probability Participation), the surrogate plan is
// advanced by the period's sparse competency deltas via ApplyDelta, the
// mechanism is evaluated on the surrogate (SurrogatePD/PM), and one
// realized delegation profile is scored against the true instance through
// a Scenario (TruthPM, Misdelegation).
//
// All randomness derives from seed. Results are bit-identical for every
// Workers value (the exact scoring paths are worker-independent, and all
// draws come from per-purpose derived streams). Cancelling ctx aborts
// between periods with ctx's error.
func Replay(ctx context.Context, in *core.Instance, mech mechanism.Mechanism, opts ReplayOptions, seed uint64) ([]ReplayStep, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	n := in.N()
	tr := NewTrackRecord(n)
	surrogate, err := tr.SurrogateInstance(in)
	if err != nil {
		return nil, err
	}
	planOpts := election.Options{Replications: opts.Replications, Workers: opts.Workers}
	plan, err := election.NewPlan(surrogate, planOpts)
	if err != nil {
		return nil, err
	}
	truthPlan, err := election.NewPlan(in, planOpts)
	if err != nil {
		return nil, err
	}
	truthSc, err := election.NewScenario(truthPlan, core.NewDelegationGraph(n))
	if err != nil {
		return nil, err
	}

	root := rng.New(seed)
	obs := root.DeriveString("observe")
	participants := make([]int, 0, n)
	touched := make([]bool, n)
	steps := make([]ReplayStep, 0, opts.Periods)
	for period := 0; period < opts.Periods; period++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Observe the period's issues; remember who participated at all.
		for i := range touched {
			touched[i] = false
		}
		for issue := 0; issue < opts.IssuesPerPeriod; issue++ {
			participants = participants[:0]
			for v := 0; v < n; v++ {
				if obs.Bernoulli(opts.Participation) {
					participants = append(participants, v)
					touched[v] = true
				}
			}
			if err := tr.ObserveIssue(in, participants, obs); err != nil {
				return nil, err
			}
		}
		// Advance the surrogate plan by the period's sparse deltas.
		var deltas []election.Delta
		for v := 0; v < n; v++ {
			if touched[v] {
				deltas = append(deltas, election.Delta{Kind: election.DeltaCompetency, Voter: v, P: tr.Accuracy(v)})
			}
		}
		if len(deltas) > 0 {
			if plan, err = plan.ApplyDelta(deltas...); err != nil {
				return nil, err
			}
		}

		evalSeed := rng.Derive(seed, "replay-eval", strconv.Itoa(period))
		results, err := election.EvaluateSweep(ctx, plan, []election.SweepPoint{{Mechanism: mech, Seed: evalSeed}})
		if err != nil {
			return nil, err
		}

		// One realized surrogate-informed profile, scored against truth.
		mechStream := rng.New(rng.Derive(seed, "replay-mech", strconv.Itoa(period)))
		d, err := mech.Apply(plan.Instance(), mechStream)
		if err != nil {
			return nil, err
		}
		if err := truthSc.SetDelegation(d); err != nil {
			return nil, err
		}
		truthPM, err := truthSc.Score()
		if err != nil {
			return nil, err
		}

		steps = append(steps, ReplayStep{
			Period:        period,
			SurrogatePD:   results[0].PD,
			SurrogatePM:   results[0].PM,
			TruthPM:       truthPM,
			Misdelegation: MisdelegationRate(in, d, opts.Alpha),
			EvalSeed:      evalSeed,
			Competencies:  plan.Instance().Competencies(),
		})
	}
	return steps, nil
}
