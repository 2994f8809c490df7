package history

import (
	"errors"
	"math"
	"slices"
	"testing"

	"liquid/internal/core"
	"liquid/internal/graph"
	"liquid/internal/rng"
)

func mustInstance(t *testing.T, top graph.Topology, p []float64) *core.Instance {
	t.Helper()
	in, err := core.NewInstance(top, p)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestSimulateValidation(t *testing.T) {
	in := mustInstance(t, graph.NewComplete(3), []float64{0.2, 0.5, 0.8})
	if _, err := Simulate(in, 0, rng.New(1)); !errors.Is(err, ErrInvalidHistory) {
		t.Fatalf("err = %v", err)
	}
}

// simulateReference is the Bernoulli loop Simulate must reproduce: per
// issue, one s.Bernoulli per voter in ascending id.
func simulateReference(in *core.Instance, t int, s *rng.Stream) *TrackRecord {
	tr := &TrackRecord{T: t, Scores: make([]int, in.N())}
	for issue := 0; issue < t; issue++ {
		for v := 0; v < in.N(); v++ {
			if s.Bernoulli(in.Competency(v)) {
				tr.Scores[v]++
			}
		}
	}
	return tr
}

// TestSimulateMatchesReference holds Simulate to the Bernoulli loop: the
// same scores and the stream left at the same word. Competencies mix 0
// and 1 (no draw), the extreme draws 5e-324 and 1 − 2^-53, a tied value
// and uniform ones.
func TestSimulateMatchesReference(t *testing.T) {
	for _, n := range []int{1, 7, 1001} {
		for _, hist := range []int{1, 4, 64} {
			seed := uint64(n)<<8 | uint64(hist)
			s := rng.New(seed)
			p := make([]float64, n)
			for i := range p {
				switch s.IntN(8) {
				case 0:
					p[i] = 0
				case 1:
					p[i] = 1
				case 2:
					p[i] = math.SmallestNonzeroFloat64
				case 3:
					p[i] = 1 - 0x1p-53
				case 4:
					p[i] = 0.5
				default:
					p[i] = s.Float64()
				}
			}
			in := mustInstance(t, graph.NewComplete(n), p)
			a, b := rng.New(^seed), rng.New(^seed)
			got, err := Simulate(in, hist, a)
			if err != nil {
				t.Fatal(err)
			}
			want := simulateReference(in, hist, b)
			if got.T != want.T || got.Counts != nil || !slices.Equal(got.Scores, want.Scores) {
				t.Fatalf("n=%d t=%d: Simulate %+v, reference %+v", n, hist, got, want)
			}
			if a.Uint64() != b.Uint64() {
				t.Fatalf("n=%d t=%d: the streams continue at different words", n, hist)
			}
		}
	}
}

func TestScoresTrackCompetency(t *testing.T) {
	in := mustInstance(t, graph.NewComplete(3), []float64{0.1, 0.5, 0.9})
	tr, err := Simulate(in, 2000, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 3; v++ {
		got := float64(tr.Scores[v]) / float64(tr.T)
		if math.Abs(got-in.Competency(v)) > 0.05 {
			t.Fatalf("voter %d observed accuracy %v, competency %v", v, got, in.Competency(v))
		}
	}
}

func TestAccuracySmoothing(t *testing.T) {
	tr := &TrackRecord{T: 2, Scores: []int{0, 2}}
	if got := tr.Accuracy(0); got != 0.25 {
		t.Fatalf("Accuracy(0) = %v, want 0.25", got)
	}
	if got := tr.Accuracy(1); got != 0.75 {
		t.Fatalf("Accuracy(1) = %v, want 0.75", got)
	}
}

func TestApprovesFromRecord(t *testing.T) {
	tr := &TrackRecord{T: 10, Scores: []int{2, 8}}
	if !tr.Approves(0, 1, 0.2) {
		t.Fatal("strong record should be approved")
	}
	if tr.Approves(1, 0, 0.2) {
		t.Fatal("weak record approved")
	}
}

func TestSurrogateInstance(t *testing.T) {
	in := mustInstance(t, graph.NewComplete(4), []float64{0.2, 0.4, 0.6, 0.8})
	tr, err := Simulate(in, 500, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	sur, err := tr.SurrogateInstance(in)
	if err != nil {
		t.Fatal(err)
	}
	if sur.N() != 4 {
		t.Fatalf("N = %d", sur.N())
	}
	for v := 0; v < 4; v++ {
		if p := sur.Competency(v); p <= 0 || p >= 1 {
			t.Fatalf("surrogate competency %v not in (0,1)", p)
		}
		if math.Abs(sur.Competency(v)-in.Competency(v)) > 0.1 {
			t.Fatalf("surrogate %v far from truth %v at t=500", sur.Competency(v), in.Competency(v))
		}
	}
	// Size mismatch is rejected.
	other := mustInstance(t, graph.NewComplete(2), []float64{0.5, 0.5})
	if _, err := tr.SurrogateInstance(other); !errors.Is(err, ErrInvalidHistory) {
		t.Fatalf("err = %v", err)
	}
}

func TestMisdelegationRate(t *testing.T) {
	in := mustInstance(t, graph.NewComplete(3), []float64{0.2, 0.5, 0.8})
	d := core.NewDelegationGraph(3)
	if MisdelegationRate(in, d, 0.1) != 0 {
		t.Fatal("empty delegation should have rate 0")
	}
	// 0 -> 2 is truly approved; 2 -> 0 is not.
	if err := d.SetDelegate(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := d.SetDelegate(2, 0); err != nil {
		t.Fatal(err)
	}
	if got := MisdelegationRate(in, d, 0.1); got != 0.5 {
		t.Fatalf("rate = %v, want 0.5", got)
	}
}

func TestLongHistoryConvergesToTrueApprovals(t *testing.T) {
	in := mustInstance(t, graph.NewComplete(10), []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.85, 0.95})
	tr, err := Simulate(in, 20000, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	// With a long history and a margin well below the competency gaps,
	// estimated approvals should match true approvals for clearly separated
	// pairs (gap >= 2*alpha).
	const alpha = 0.04
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			if i == j {
				continue
			}
			gap := in.Competency(j) - in.Competency(i)
			switch {
			case gap >= 2*alpha:
				if !tr.Approves(i, j, alpha) {
					t.Fatalf("long history missed clear approval %d->%d (gap %v)", i, j, gap)
				}
			case gap <= 0:
				if tr.Approves(i, j, alpha) {
					t.Fatalf("long history approved downward %d->%d", i, j)
				}
			}
		}
	}
}
