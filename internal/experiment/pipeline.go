package experiment

// The sweep-shaped experiments (A1's threshold grid, A2's alpha grid)
// evaluate many points against one instance through the staged evaluation
// pipeline: build a Plan, batch the points. The pipeline is bit-identical
// to point-by-point evaluation by its equivalence contract
// (election/plan.go), which TestEvaluateSweepMatchesPointwise pins.

import (
	"context"

	"liquid/internal/core"
	"liquid/internal/election"
)

// evaluatePoints evaluates a sweep of points on one instance, batched
// through a Plan. prewarmAlphas lists approval margins to warm on the plan
// before the sweep runs (a pure warm-up: mechanisms build the memos on
// demand either way).
func evaluatePoints(ctx context.Context, in *core.Instance, base election.Options, points []election.SweepPoint, prewarmAlphas ...float64) ([]*election.Result, error) {
	plan, err := election.NewPlan(in, base)
	if err != nil {
		return nil, err
	}
	plan.PrewarmApproval(prewarmAlphas...)
	return election.EvaluateSweep(ctx, plan, points)
}
