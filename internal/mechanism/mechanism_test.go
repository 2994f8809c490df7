package mechanism

import (
	"errors"
	"testing"
	"testing/quick"

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

func uniformComps(n int, seed uint64) []float64 {
	s := rng.New(seed)
	p := make([]float64, n)
	for i := range p {
		p[i] = s.Float64()
	}
	return p
}

func TestDirect(t *testing.T) {
	in := mustInstance(t, graph.NewComplete(5), uniformComps(5, 1))
	d, err := Direct{}.Apply(in, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if d.NumDelegators() != 0 {
		t.Fatal("direct voting should not delegate")
	}
}

func TestApprovalThresholdDelegatesUpward(t *testing.T) {
	const n = 50
	in := mustInstance(t, graph.NewComplete(n), uniformComps(n, 3))
	m := ApprovalThreshold{Alpha: 0.05}
	d, err := m.Apply(in, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range d.Delegate {
		if j == core.NoDelegate {
			continue
		}
		if in.Competency(j) < in.Competency(i)+0.05 {
			t.Fatalf("voter %d (p=%v) delegated to %d (p=%v)", i, in.Competency(i), j, in.Competency(j))
		}
	}
	// The most competent voter can never delegate.
	top := in.TopByCompetency(1)[0]
	if d.Delegate[top] != core.NoDelegate {
		t.Fatal("most competent voter delegated")
	}
	// Delegation graph must resolve without cycles.
	if _, err := d.Resolve(); err != nil {
		t.Fatal(err)
	}
}

func TestApprovalThresholdRespectsThreshold(t *testing.T) {
	// Competencies: one excellent voter, everyone else equal. With
	// threshold 2 nobody delegates (approval sets have size 1).
	p := []float64{0.9, 0.4, 0.4, 0.4, 0.4}
	in := mustInstance(t, graph.NewComplete(5), p)
	m := ApprovalThreshold{Alpha: 0.1, Threshold: ConstantThreshold(2)}
	d, err := m.Apply(in, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if d.NumDelegators() != 0 {
		t.Fatalf("threshold 2 with approval sets of size 1: %d delegators", d.NumDelegators())
	}
	// With threshold 1 all four weak voters delegate to voter 0.
	m1 := ApprovalThreshold{Alpha: 0.1, Threshold: ConstantThreshold(1)}
	d1, err := m1.Apply(in, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if d1.NumDelegators() != 4 {
		t.Fatalf("expected 4 delegators, got %d", d1.NumDelegators())
	}
}

func TestApprovalThresholdLocalOnExplicitGraph(t *testing.T) {
	g, err := graph.Star(6)
	if err != nil {
		t.Fatal(err)
	}
	p := []float64{0.8, 0.3, 0.35, 0.4, 0.45, 0.9}
	in := mustInstance(t, g, p)
	m := ApprovalThreshold{Alpha: 0.1}
	d, err := m.Apply(in, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ValidateLocal(in, 0.1); err != nil {
		t.Fatal(err)
	}
	// Leaf 5 (p=0.9) must not delegate: its only neighbour is weaker.
	if d.Delegate[5] != core.NoDelegate {
		t.Fatal("leaf 5 should vote directly")
	}
	// Leaves 1..4 must delegate to the center.
	for i := 1; i <= 4; i++ {
		if d.Delegate[i] != 0 {
			t.Fatalf("leaf %d delegated to %d", i, d.Delegate[i])
		}
	}
}

func TestApprovalThresholdNegativeAlpha(t *testing.T) {
	in := mustInstance(t, graph.NewComplete(3), uniformComps(3, 7))
	if _, err := (ApprovalThreshold{Alpha: -0.1}).Apply(in, rng.New(8)); !errors.Is(err, ErrInvalidMechanism) {
		t.Fatalf("err = %v", err)
	}
}

func TestFractionThreshold(t *testing.T) {
	tests := []struct {
		f    float64
		n    int
		want int
	}{
		{0.5, 10, 5},
		{0.5, 11, 6},
		{0, 10, 0},
		{-1, 10, 0},
		{0.1, 5, 1},
		{1, 7, 7},
	}
	for _, tt := range tests {
		if got := FractionThreshold(tt.f)(tt.n); got != tt.want {
			t.Errorf("FractionThreshold(%v)(%d) = %d, want %d", tt.f, tt.n, got, tt.want)
		}
	}
}

func TestGreedyBestStar(t *testing.T) {
	// Figure 1: center p=2/3, leaves p=3/5. Greedy sends every leaf's vote
	// to the center.
	const n = 9
	g, err := graph.Star(n)
	if err != nil {
		t.Fatal(err)
	}
	p := make([]float64, n)
	p[0] = 2.0 / 3
	for i := 1; i < n; i++ {
		p[i] = 3.0 / 5
	}
	in := mustInstance(t, g, p)
	d, err := GreedyBest{Alpha: 0.01}.Apply(in, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxWeight != n || len(res.Sinks) != 1 || res.Sinks[0] != 0 {
		t.Fatalf("greedy star should concentrate all weight: %+v", res)
	}
}

func TestGreedyBestPicksMostCompetent(t *testing.T) {
	in := mustInstance(t, graph.NewComplete(4), []float64{0.2, 0.5, 0.9, 0.7})
	d, err := GreedyBest{Alpha: 0.1}.Apply(in, rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1, 3} {
		if d.Delegate[i] != 2 {
			t.Fatalf("voter %d delegated to %d, want 2", i, d.Delegate[i])
		}
	}
	if d.Delegate[2] != core.NoDelegate {
		t.Fatal("top voter delegated")
	}
}

// TestGreedyBestCompleteMatchesNeighborScan: on K_n, GreedyBest scans the
// voters instead of Neighbors' list; on random instances with tied
// competencies every delegate, tie-breaks included, equals a scan over
// Neighbors.
func TestGreedyBestCompleteMatchesNeighborScan(t *testing.T) {
	s := rng.New(44)
	for trial := 0; trial < 20; trial++ {
		n := 1 + s.IntN(40)
		p := make([]float64, n)
		for i := range p {
			p[i] = float64(1+s.IntN(4)) / 5
		}
		in := mustInstance(t, graph.NewComplete(n), p)
		for _, alpha := range []float64{0, 0.2, 1} {
			d, err := GreedyBest{Alpha: alpha}.Apply(in, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				want := core.NoDelegate
				for _, j := range in.Topology().Neighbors(i) {
					if p[j] >= p[i]+alpha && (want == core.NoDelegate || p[j] > p[want]) {
						want = j
					}
				}
				if d.Delegate[i] != want {
					t.Fatalf("n=%d alpha=%v voter %d: delegate %d, Neighbors scan %d", n, alpha, i, d.Delegate[i], want)
				}
			}
		}
	}
}

func TestHalfNeighborhood(t *testing.T) {
	// Path 0-1-2 with competencies 0.3, 0.5, 0.9.
	g, err := graph.Path(3)
	if err != nil {
		t.Fatal(err)
	}
	in := mustInstance(t, g, []float64{0.3, 0.5, 0.9})
	d, err := HalfNeighborhood{Alpha: 0.1}.Apply(in, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	// Voter 0: 1 neighbour, 1 approved (0.5 >= 0.4) -> delegates.
	if d.Delegate[0] != 1 {
		t.Fatalf("voter 0 delegate = %d", d.Delegate[0])
	}
	// Voter 1: 2 neighbours, 1 approved (0.9) -> 1 >= 2/2 -> delegates to 2.
	if d.Delegate[1] != 2 {
		t.Fatalf("voter 1 delegate = %d", d.Delegate[1])
	}
	// Voter 2: no approved neighbours.
	if d.Delegate[2] != core.NoDelegate {
		t.Fatal("voter 2 should vote directly")
	}
}

func TestHalfNeighborhoodBelowHalf(t *testing.T) {
	// Star center with 4 leaves, only 1 approved: 1 < 4/2, center votes.
	g, err := graph.Star(5)
	if err != nil {
		t.Fatal(err)
	}
	in := mustInstance(t, g, []float64{0.5, 0.9, 0.3, 0.3, 0.3})
	d, err := HalfNeighborhood{Alpha: 0.1}.Apply(in, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	if d.Delegate[0] != core.NoDelegate {
		t.Fatal("center should not delegate with <half approved")
	}
}

func TestQuickMechanismsAlwaysAcyclicAndApproved(t *testing.T) {
	mechanisms := []Mechanism{
		ApprovalThreshold{Alpha: 0.02},
		ApprovalThreshold{Alpha: 0.02, Threshold: ConstantThreshold(3)},
		GreedyBest{Alpha: 0.02},
		HalfNeighborhood{Alpha: 0.02},
	}
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%30) + 3
		s := rng.New(seed)
		g, err := graph.ErdosRenyi(n, 0.3, s.DeriveString("graph"))
		if err != nil {
			return false
		}
		in, err := core.NewInstance(g, uniformComps(n, seed^0xABCD))
		if err != nil {
			return false
		}
		for _, m := range mechanisms {
			d, err := m.Apply(in, s.DeriveString(m.Name()))
			if err != nil {
				return false
			}
			if err := d.ValidateLocal(in, 0.02); err != nil {
				return false
			}
			if _, err := d.Resolve(); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
