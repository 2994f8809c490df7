package prob

import (
	"context"
	"math"
	"sync"
	"testing"

	"liquid/internal/rng"
)

// randomPs returns n probabilities in [lo, hi).
func randomPs(n int, lo, hi float64, s *rng.Stream) []float64 {
	ps := make([]float64, n)
	for i := range ps {
		ps[i] = lo + (hi-lo)*s.Float64()
	}
	return ps
}

// randomVoters returns n voters with weights in [1, maxW].
func randomVoters(n, maxW int, s *rng.Stream) []WeightedVoter {
	vs := make([]WeightedVoter, n)
	for i := range vs {
		vs[i] = WeightedVoter{Weight: 1 + s.IntN(maxW), P: 0.2 + 0.6*s.Float64()}
	}
	return vs
}

// equalBits reports a[i] == b[i] bit-for-bit (NaN-free inputs).
func equalBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestPMFParallelCancellation checks the fork-join tree aborts with ctx's
// error instead of completing.
func TestPMFParallelCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := rng.New(47)
	if _, err := KernelMajority(ctx, randomPs(4000, 0.1, 0.9, s), 4); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := NewWorkspace().pmf(ctx, randomVoters(2000, 3, s), 4); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestWorkspacePoolHammer is the concurrent-pooling stress test: many
// goroutines run parallel and sequential evaluations simultaneously,
// sharing the subtree workspace pool, and every result must be
// bit-identical to a reference computed up front. Run under -race this
// doubles as the arena-aliasing check — if any pooled workspace were
// handed to two subtrees at once, the racing writes to its arena would
// both trip the detector and corrupt a PMF.
func TestWorkspacePoolHammer(t *testing.T) {
	ctx := context.Background()
	s := rng.New(53)
	const inputs = 6
	type testCase struct {
		units, voters []WeightedVoter
		unitF, wmF    []float64
	}
	ref := NewWorkspace()
	pmfOf := func(voters []WeightedVoter) []float64 {
		f, err := ref.PMF(voters)
		if err != nil {
			t.Fatal(err)
		}
		return append([]float64(nil), f...)
	}
	cases := make([]testCase, inputs)
	for i := range cases {
		units := appendUnitVoters(nil, randomPs(1500+137*i, 0.1, 0.9, s))
		voters := randomVoters(400+61*i, 5, s)
		cases[i] = testCase{units: units, voters: voters, unitF: pmfOf(units), wmF: pmfOf(voters)}
	}

	const goroutines = 8
	const rounds = 20
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ws := NewWorkspace()
			for r := 0; r < rounds; r++ {
				c := cases[(g+r)%inputs]
				workers := 1 + (g+r)%4
				got, err := ws.pmf(ctx, c.units, workers)
				if err == nil && !equalBits(c.unitF, got) {
					err = errDiff
				}
				if err == nil {
					var wmGot []float64
					wmGot, err = ws.pmf(ctx, c.voters, workers)
					if err == nil && !equalBits(c.wmF, wmGot) {
						err = errDiff
					}
				}
				if err != nil {
					select {
					case errs <- err:
					default:
					}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

// errDiff marks a bit-level divergence in the hammer test.
var errDiff = errMismatch{}

type errMismatch struct{}

func (errMismatch) Error() string { return "parallel PMF differs from sequential reference" }

// BenchmarkPBPMFParallel measures the parallel evaluator at the sizes the
// BENCH trajectory tracks. On a single-core host the parallel tree should
// track the sequential time (budget degrades to inline recursion); on
// multi-core hosts the subtree fan-out shows up as a speedup.
func BenchmarkPBPMFParallel(b *testing.B) {
	ctx := context.Background()
	s := rng.New(59)
	for _, n := range []int{2000, 20000} {
		ps := randomPs(n, 0.1, 0.9, s)
		for _, workers := range []int{1, 4} {
			b.Run(benchName(n, workers), func(b *testing.B) {
				ws := NewWorkspace()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := ws.pmf(ctx, ws.UnitVoters(ps), workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func benchName(n, workers int) string {
	switch {
	case n == 2000 && workers == 1:
		return "n2000w1"
	case n == 2000 && workers == 4:
		return "n2000w4"
	case n == 20000 && workers == 1:
		return "n20000w1"
	default:
		return "n20000w4"
	}
}
