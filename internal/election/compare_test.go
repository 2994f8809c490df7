package election

import (
	"context"
	"errors"
	"testing"

	"liquid/internal/core"
	"liquid/internal/graph"
	"liquid/internal/mechanism"
	"liquid/internal/rng"
)

func spgInstance(t *testing.T, n int, seed uint64) *core.Instance {
	t.Helper()
	s := rng.New(seed)
	p := make([]float64, n)
	for i := range p {
		p[i] = 0.30 + 0.19*s.Float64()
	}
	return mustInstance(t, graph.NewComplete(n), p)
}

func TestCompareThresholdBeatsDirect(t *testing.T) {
	in := spgInstance(t, 301, 91)
	cmp, err := CompareMechanisms(context.Background(), in,
		mechanism.ApprovalThreshold{Alpha: 0.05},
		mechanism.Direct{},
		Options{Replications: 16, Seed: 3},
	)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Winner() != "A" {
		t.Fatalf("threshold should beat direct: %+v", cmp)
	}
	if cmp.AWins == 0 || cmp.BWins > 0 {
		t.Fatalf("win counts: %+v", cmp)
	}
	if cmp.MeanDiff <= 0 {
		t.Fatalf("MeanDiff = %v", cmp.MeanDiff)
	}
}

func TestCompareIdenticalMechanismsTie(t *testing.T) {
	in := spgInstance(t, 101, 93)
	cmp, err := CompareMechanisms(context.Background(), in,
		mechanism.ApprovalThreshold{Alpha: 0.05},
		mechanism.ApprovalThreshold{Alpha: 0.05},
		Options{Replications: 8, Seed: 5},
	)
	if err != nil {
		t.Fatal(err)
	}
	// Same mechanism, same stream: identical results every replication.
	if cmp.Ties != 8 || cmp.Winner() != "tie" {
		t.Fatalf("identical mechanisms should tie: %+v", cmp)
	}
}

func TestCompareSymmetry(t *testing.T) {
	in := spgInstance(t, 151, 95)
	ab, err := CompareMechanisms(context.Background(), in,
		mechanism.ApprovalThreshold{Alpha: 0.02},
		mechanism.ApprovalThreshold{Alpha: 0.15},
		Options{Replications: 8, Seed: 7},
	)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := CompareMechanisms(context.Background(), in,
		mechanism.ApprovalThreshold{Alpha: 0.15},
		mechanism.ApprovalThreshold{Alpha: 0.02},
		Options{Replications: 8, Seed: 7},
	)
	if err != nil {
		t.Fatal(err)
	}
	if ab.MeanDiff != -ba.MeanDiff {
		t.Fatalf("comparison not antisymmetric: %v vs %v", ab.MeanDiff, ba.MeanDiff)
	}
}

func TestCompareErrors(t *testing.T) {
	empty := mustInstance(t, graph.NewComplete(0), nil)
	if _, err := CompareMechanisms(context.Background(), empty, mechanism.Direct{}, mechanism.Direct{}, Options{}); !errors.Is(err, ErrNoVoters) {
		t.Fatalf("err = %v", err)
	}
	in := spgInstance(t, 21, 97)
	if _, err := CompareMechanisms(context.Background(), in, mechanism.CycleForcing{}, mechanism.Direct{}, Options{Replications: 2, Seed: 1}); err == nil {
		t.Fatal("cycle-forcing mechanism accepted")
	}
}

// TestCompareDeterministicAcrossWorkers: the paired replications run in
// the Plan's worker pool, and the comparison must not see Workers.
func TestCompareDeterministicAcrossWorkers(t *testing.T) {
	in := spgInstance(t, 201, 99)
	var ref *Comparison
	for _, workers := range []int{1, 4} {
		cmp, err := CompareMechanisms(context.Background(), in,
			mechanism.ApprovalThreshold{Alpha: 0.02},
			mechanism.GreedyBest{Alpha: 0.02},
			Options{Replications: 12, Seed: 13, Workers: workers},
		)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = cmp
			continue
		}
		if *cmp != *ref {
			t.Fatalf("workers=%d diverged:\n%+v\n%+v", workers, cmp, ref)
		}
	}
	if ref.AWins+ref.BWins+ref.Ties != 12 {
		t.Fatalf("win counts %+v do not cover 12 replications", ref)
	}
}
