package prob

// The convolution engine's fork-join budget (see Workspace.dc) and the
// context-taking entry points that use it, plus ParallelFor, the shared
// worker loop over independent items.
//
// The fork budget is a non-blocking token bucket: a node forks its right
// child only if a token is free, otherwise it recurses inline. Scheduling
// therefore affects only which subtrees run concurrently — never what any
// subtree computes. With workers <= 1 there is no budget at all, so
// single-core callers pay no synchronization.
//
// Cancellation is cooperative: every internal node checks ctx before
// descending, and forked goroutines inherit ctx through the recursion
// (the ctxflow analyzer enforces that every goroutine launched in this
// package threads a context).

import (
	"context"
	"sync"
	"sync/atomic"
)

// parForkMinWeight is the smallest subtree support (PMF length) worth a
// goroutine: below it the fork/join overhead exceeds the subtree's work.
const parForkMinWeight = 1 << 10

// parWSPool holds subtree workspaces for the fork-join evaluator. Pooled
// workspaces retain their arenas across calls; pooling affects allocation
// only, never results.
var parWSPool = sync.Pool{New: func() any { return NewWorkspace() }}

// forkBudget is the non-blocking token bucket bounding extra goroutines.
type forkBudget struct{ tokens chan struct{} }

// newForkBudget returns a budget allowing workers-1 concurrent forks (the
// calling goroutine is the first worker).
func newForkBudget(workers int) *forkBudget {
	extra := workers - 1
	b := &forkBudget{tokens: make(chan struct{}, extra)}
	for i := 0; i < extra; i++ {
		b.tokens <- struct{}{}
	}
	return b
}

// tryAcquire takes a token if one is free, never blocking: a saturated
// budget degrades to inline recursion instead of queueing.
func (b *forkBudget) tryAcquire() bool {
	select {
	case <-b.tokens:
		return true
	default:
		return false
	}
}

func (b *forkBudget) release() { b.tokens <- struct{}{} }

// forkResult carries a forked subtree's PMF, which lives in the (still
// borrowed) child workspace until the parent has merged it.
type forkResult struct {
	f   []float64
	err error
}

// PMFParallelWS computes the PMF with up to workers goroutines cooperating
// on the divide-and-conquer tree, into ws-owned memory. The result is
// bit-identical to PMFWS for every workers value and valid until the next
// kernel call on ws. workers <= 1 runs the sequential evaluator.
func (pb *PoissonBinomial) PMFParallelWS(ctx context.Context, ws *Workspace, workers int) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return ws.pmf(ctx, ws.unitVoters(pb.ps), workers)
}

// ProbMajorityParallelWS is ProbMajorityWS on the parallel evaluator:
// P[sum > n/2], bit-identical to the sequential value for any workers.
func (pb *PoissonBinomial) ProbMajorityParallelWS(ctx context.Context, ws *Workspace, workers int) (float64, error) {
	f, err := pb.PMFParallelWS(ctx, ws, workers)
	if err != nil {
		return 0, err
	}
	n := len(pb.ps)
	return clamp01(Sum(f[n/2+1 : n+1])), nil
}

// ParallelFor calls body(w, i) for every i in [0, n) on up to workers
// goroutines; w < workers names the goroutine, for per-worker scratch.
// Scheduling decides only which goroutine runs i, so a body that writes
// slot i gives results that do not depend on it. One worker or one item
// runs inline. A cancelled ctx stops the hand-out and is returned.
//
// It has four callers: the normal tier's moment blocks (UnitMoments), the
// scale fold's chunks (scale.EvaluateMajority), the election Plan's
// replications (election's Plan.replicate) and the experiment engine's
// definitions (engine.Runner.Run).
func ParallelFor(ctx context.Context, n, workers int, body func(w, i int)) error {
	if workers = min(workers, n); workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			body(0, i)
		}
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				body(w, i)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}
