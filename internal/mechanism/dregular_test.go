package mechanism

import (
	"errors"
	"testing"

	"liquid/internal/core"
	"liquid/internal/graph"
	"liquid/internal/rng"
)

func TestNeighborSamplingDelegatesUpward(t *testing.T) {
	const n = 100
	in := mustInstance(t, graph.NewComplete(n), uniformComps(n, 21))
	m := NeighborSampling{Alpha: 0.05, D: 8}
	d, err := m.Apply(in, rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	if d.NumDelegators() == 0 {
		t.Fatal("expected some delegation with d=8 on uniform competencies")
	}
	for i, j := range d.Delegate {
		if j == core.NoDelegate {
			continue
		}
		if j == i {
			t.Fatal("self delegation")
		}
		if in.Competency(j) < in.Competency(i)+0.05 {
			t.Fatalf("voter %d delegated to unapproved %d", i, j)
		}
	}
	if _, err := d.Resolve(); err != nil {
		t.Fatal(err)
	}
}

func TestNeighborSamplingValidation(t *testing.T) {
	in := mustInstance(t, graph.NewComplete(10), uniformComps(10, 23))
	tests := []NeighborSampling{
		{Alpha: -1, D: 3},
		{Alpha: 0.1, D: 0},
		{Alpha: 0.1, D: 10}, // d must be < n
	}
	for _, m := range tests {
		if _, err := m.Apply(in, rng.New(1)); !errors.Is(err, ErrInvalidMechanism) {
			t.Errorf("%+v: err = %v", m, err)
		}
	}
}

func TestNeighborSamplingThreshold(t *testing.T) {
	// One strong voter among many equals: each voter's sample of d=3
	// contains the strong voter rarely; with threshold j(d)=2 nobody can
	// delegate (at most 1 approved in any sample).
	p := make([]float64, 40)
	for i := range p {
		p[i] = 0.4
	}
	p[0] = 0.95
	in := mustInstance(t, graph.NewComplete(40), p)
	m := NeighborSampling{Alpha: 0.1, D: 3, Threshold: ConstantThreshold(2)}
	d, err := m.Apply(in, rng.New(24))
	if err != nil {
		t.Fatal(err)
	}
	if d.NumDelegators() != 0 {
		t.Fatalf("threshold 2 should block all delegation, got %d", d.NumDelegators())
	}
}

func TestNeighborSamplingNeverSamplesSelf(t *testing.T) {
	// With n=2, each voter's only possible sample is the other voter.
	in := mustInstance(t, graph.NewComplete(2), []float64{0.2, 0.9})
	m := NeighborSampling{Alpha: 0.1, D: 1}
	for seed := uint64(0); seed < 50; seed++ {
		d, err := m.Apply(in, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if d.Delegate[0] != 1 {
			t.Fatalf("seed %d: voter 0 delegate = %d, want 1", seed, d.Delegate[0])
		}
		if d.Delegate[1] != core.NoDelegate {
			t.Fatal("stronger voter delegated")
		}
	}
}
