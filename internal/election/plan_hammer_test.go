package election

import (
	"context"
	"math"
	"sync"
	"testing"

	"liquid/internal/core"
	"liquid/internal/graph"
	"liquid/internal/mechanism"
	"liquid/internal/rng"
)

// hammerResultEqual compares the result-bearing fields bit for bit.
func hammerResultEqual(a, b *Result) bool {
	return math.Float64bits(a.PD) == math.Float64bits(b.PD) &&
		math.Float64bits(a.PM) == math.Float64bits(b.PM) &&
		math.Float64bits(a.PMStdErr) == math.Float64bits(b.PMStdErr) &&
		math.Float64bits(a.Gain) == math.Float64bits(b.Gain) &&
		math.Float64bits(a.MeanMaxWeight) == math.Float64bits(b.MeanMaxWeight) &&
		math.Float64bits(a.MeanSinks) == math.Float64bits(b.MeanSinks) &&
		a.MaxMaxWeight == b.MaxMaxWeight
}

// TestHammerSharedPlanParallelSweep is the race hammer for the
// parallel-by-default plan path: concurrent sweeps over shared plans at
// worker budgets 1/4/16, with cache-disabled points so every evaluation
// recomputes the exact P^D through the fork-join D&C evaluator rather than
// hitting a memo. Every result must match the sequential single-plan
// reference bit for bit — the §13 invariant the cost-model worker routing
// must preserve. Run under `go test -race` in the `make check` race stage.
func TestHammerSharedPlanParallelSweep(t *testing.T) {
	const n = 2500 // above the D&C crossover, so the P^D root actually forks
	s := rng.New(rng.Derive(5, "election", "hammer"))
	ps := make([]float64, n)
	for i := range ps {
		ps[i] = 0.3 + 0.4*s.Float64()
	}
	in, err := core.NewInstance(graph.NewComplete(n), ps)
	if err != nil {
		t.Fatal(err)
	}
	points := []SweepPoint{
		{Mechanism: mechanism.ApprovalThreshold{Alpha: 0.05}, Seed: 101, DisableResolutionCache: true},
		{Mechanism: mechanism.ApprovalThreshold{Alpha: 0.1}, Seed: 202, DisableResolutionCache: true},
	}

	refPlan, err := NewPlan(in, Options{Replications: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	refs, err := EvaluateSweep(context.Background(), refPlan, points)
	if err != nil {
		t.Fatal(err)
	}

	plans := make([]*Plan, 0, 3)
	for _, workers := range []int{1, 4, 16} {
		plan, err := NewPlan(in, Options{Replications: 2, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, plan)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Two goroutines per shared plan, sweeping concurrently.
			results, err := EvaluateSweep(context.Background(), plans[g%len(plans)], points)
			if err != nil {
				t.Error(err)
				return
			}
			for i, res := range results {
				if !hammerResultEqual(res, refs[i]) {
					t.Errorf("goroutine %d (workers %d) point %d diverged: PD %v PM %v vs reference PD %v PM %v",
						g, []int{1, 4, 16}[g%len(plans)], i, res.PD, res.PM, refs[i].PD, refs[i].PM)
				}
			}
		}(g)
	}
	wg.Wait()
}
