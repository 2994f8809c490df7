package election

import (
	"context"
	"fmt"

	"liquid/internal/core"
	"liquid/internal/mechanism"
	"liquid/internal/prob"
)

// Comparison is the result of a paired evaluation of two mechanisms on the
// same instance using common random numbers: per replication both
// mechanisms draw from the same stream, so the per-replication difference
// estimates P^A - P^B with far less variance than two independent runs.
type Comparison struct {
	A, B string
	N    int

	// MeanDiff is the mean of the per-replication P^A - P^B differences;
	// DiffLo/DiffHi bound it at 95% confidence.
	MeanDiff float64
	DiffLo   float64
	DiffHi   float64
	// AWins / BWins / Ties count replications by the sign of the
	// difference (ties within 1e-12).
	AWins, BWins, Ties int
}

// Winner returns "A", "B", or "tie" depending on whether the confidence
// interval excludes zero.
func (c *Comparison) Winner() string {
	switch {
	case c.DiffLo > 0:
		return "A"
	case c.DiffHi < 0:
		return "B"
	default:
		return "tie"
	}
}

// CompareMechanisms evaluates mechA against mechB on the instance with
// paired replications: both run as same-seed replications of one Plan, so
// replication r of each draws from the same stream (common random numbers)
// and shared randomness, such as the same random delegate choices where
// both would delegate, cancels out of the difference. Each realization is
// scored as EvaluateMechanism scores it, and the result is bit-identical
// for every Workers value. Cancelling ctx aborts the replications with
// ctx's error.
func CompareMechanisms(ctx context.Context, in *core.Instance, mechA, mechB mechanism.Mechanism, opts Options) (*Comparison, error) {
	plan, err := NewPlan(in, opts)
	if err != nil {
		return nil, err
	}
	outA, err := plan.replicate(ctx, mechA, nil, plan.opts, false)
	if err != nil {
		return nil, err
	}
	outB, err := plan.replicate(ctx, mechB, nil, plan.opts, false)
	if err != nil {
		return nil, err
	}

	cmp := &Comparison{A: mechA.Name(), B: mechB.Name(), N: in.N()}
	var diffs prob.Summary
	for r := range outA {
		if err := outA[r].err; err != nil {
			return nil, fmt.Errorf("mechanism %q: %w", mechA.Name(), err)
		}
		if err := outB[r].err; err != nil {
			return nil, fmt.Errorf("mechanism %q: %w", mechB.Name(), err)
		}
		d := outA[r].pm - outB[r].pm
		diffs.Add(d)
		switch {
		case d > 1e-12:
			cmp.AWins++
		case d < -1e-12:
			cmp.BWins++
		default:
			cmp.Ties++
		}
	}
	cmp.MeanDiff = diffs.Mean()
	cmp.DiffLo, cmp.DiffHi = diffs.MeanCI(0.95)
	return cmp, nil
}
