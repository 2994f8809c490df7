// Package adaptive simulates liquid democracy over a *sequence* of issues:
// after every decided issue, voters observe who was right, update the
// shared track record, and re-derive their approval sets for the next
// issue. This closes the loop the paper's model leaves open — where
// approval information comes from — and produces learning curves: accuracy
// as a function of how many issues the community has already decided
// together.
package adaptive

import (
	"errors"
	"fmt"

	"liquid/internal/core"
	"liquid/internal/election"
	"liquid/internal/history"
	"liquid/internal/mechanism"
	"liquid/internal/rng"
)

// ErrInvalidSequence reports invalid sequence parameters.
var ErrInvalidSequence = errors.New("adaptive: invalid sequence")

// Options configures a repeated-election simulation.
type Options struct {
	// Issues is the number of sequential decisions (required, >= 1).
	Issues int
	// Alpha is the approval margin applied to observed accuracies.
	Alpha float64
	// Warmup is the number of initial issues decided by direct voting while
	// the first track records accumulate (default 1).
	Warmup int
	// Seed drives all randomness.
	Seed uint64
}

// Step records one issue of the sequence.
type Step struct {
	// Issue is the 0-based issue index.
	Issue int
	// ProbCorrect is the exact probability that this issue's (delegated)
	// vote decides correctly, given the delegation graph realized from the
	// track record so far.
	ProbCorrect float64
	// Decided reports the sampled outcome actually used to extend the
	// record (true = community decided correctly).
	Decided bool
	// Delegators and MaxWeight describe the realized delegation structure.
	Delegators int
	MaxWeight  int
	// Misdelegation is the fraction of delegation edges violating the true
	// approval relation.
	Misdelegation float64
}

// Sequence is the full simulation result.
type Sequence struct {
	Steps []Step
	// DirectProb is the constant exact probability of direct voting on the
	// instance, for reference.
	DirectProb float64
}

// Run simulates the adaptive sequence on the instance with the given
// threshold mechanism template (its Alpha is overridden by opts.Alpha).
func Run(in *core.Instance, opts Options) (*Sequence, error) {
	if opts.Issues < 1 {
		return nil, fmt.Errorf("%w: issues %d", ErrInvalidSequence, opts.Issues)
	}
	if !(opts.Alpha >= 0) {
		return nil, fmt.Errorf("%w: negative or NaN alpha %v", ErrInvalidSequence, opts.Alpha)
	}
	if opts.Warmup < 1 {
		opts.Warmup = 1
	}
	n := in.N()
	if n == 0 {
		return nil, fmt.Errorf("%w: empty instance", ErrInvalidSequence)
	}

	root := rng.New(opts.Seed)
	pd, err := election.DirectProbabilityExact(in)
	if err != nil {
		return nil, err
	}
	seq := &Sequence{DirectProb: pd, Steps: make([]Step, 0, opts.Issues)}

	record := &history.TrackRecord{Scores: make([]int, n)}
	mech := mechanism.ApprovalThreshold{Alpha: opts.Alpha}

	for issue := 0; issue < opts.Issues; issue++ {
		s := root.Derive(uint64(issue) + 1)
		step := Step{Issue: issue}

		var d *core.DelegationGraph
		if issue < opts.Warmup {
			d = core.NewDelegationGraph(n)
		} else {
			surrogate, err := record.SurrogateInstance(in)
			if err != nil {
				return nil, err
			}
			d, err = mech.Apply(surrogate, s.DeriveString("mech"))
			if err != nil {
				return nil, err
			}
		}
		res, err := d.Resolve()
		if err != nil {
			return nil, err
		}
		pm, err := election.ResolutionProbabilityExact(in, res)
		if err != nil {
			return nil, err
		}
		step.ProbCorrect = pm
		step.Delegators = res.Delegators
		step.MaxWeight = res.MaxWeight
		step.Misdelegation = history.MisdelegationRate(in, d, opts.Alpha)

		// Realize the issue: every voter votes (their own draw extends the
		// record whether or not they delegated — delegators still observe
		// the outcome and their own private judgement of it).
		votes := s.DeriveString("votes")
		correctWeight := 0
		ownVote := make([]bool, n)
		for v := 0; v < n; v++ {
			ownVote[v] = votes.Bernoulli(in.Competency(v))
		}
		for v := 0; v < n; v++ {
			sk := res.SinkOf[v]
			if sk == core.NoDelegate {
				continue
			}
			if ownVote[sk] {
				correctWeight++
			}
		}
		step.Decided = 2*correctWeight > res.TotalWeight
		for v := 0; v < n; v++ {
			if ownVote[v] {
				record.Scores[v]++
			}
		}
		record.T++

		seq.Steps = append(seq.Steps, step)
	}
	return seq, nil
}

// MeanProb returns the average exact per-issue probability over the steps
// in [from, to).
func (s *Sequence) MeanProb(from, to int) float64 {
	if from < 0 {
		from = 0
	}
	if to > len(s.Steps) {
		to = len(s.Steps)
	}
	if to <= from {
		return 0
	}
	var sum float64
	for _, st := range s.Steps[from:to] {
		sum += st.ProbCorrect
	}
	return sum / float64(to-from)
}
