package core

import (
	"errors"
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"liquid/internal/graph"
	"liquid/internal/rng"
)

func mustInstance(t *testing.T, top graph.Topology, p []float64) *Instance {
	t.Helper()
	in, err := NewInstance(top, p)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestNewInstanceValidation(t *testing.T) {
	top := graph.NewComplete(3)
	tests := []struct {
		name string
		top  graph.Topology
		p    []float64
	}{
		{"nil topology", nil, []float64{0.5}},
		{"length mismatch", top, []float64{0.5}},
		{"negative p", top, []float64{0.5, -0.1, 0.5}},
		{"p above one", top, []float64{0.5, 1.1, 0.5}},
		{"NaN", top, []float64{0.5, math.NaN(), 0.5}},
	}
	for _, tt := range tests {
		if _, err := NewInstance(tt.top, tt.p); !errors.Is(err, ErrInvalidInstance) {
			t.Errorf("%s: err = %v, want ErrInvalidInstance", tt.name, err)
		}
	}
}

func TestInstanceCopiesCompetencies(t *testing.T) {
	p := []float64{0.1, 0.9}
	in := mustInstance(t, graph.NewComplete(2), p)
	p[0] = 0.8
	if in.Competency(0) != 0.1 {
		t.Fatal("instance should copy its competency vector")
	}
	got := in.Competencies()
	got[1] = 0
	if in.Competency(1) != 0.9 {
		t.Fatal("Competencies should return a copy")
	}
}

func TestApproves(t *testing.T) {
	g, err := graph.Star(4) // center 0
	if err != nil {
		t.Fatal(err)
	}
	in := mustInstance(t, g, []float64{0.9, 0.5, 0.85, 0.1})
	const alpha = 0.1
	if !in.Approves(1, 0, alpha) {
		t.Error("leaf 1 should approve center")
	}
	if in.Approves(0, 1, alpha) {
		t.Error("center should not approve weaker leaf")
	}
	if in.Approves(0, 2, alpha) {
		t.Error("0.85 is within alpha of 0.9")
	}
	if in.Approves(1, 2, alpha) {
		t.Error("leaves are not adjacent in a star")
	}
	if in.Approves(1, 1, alpha) {
		t.Error("self-approval")
	}
}

func TestApprovalSetAndCount(t *testing.T) {
	g, err := graph.CompleteExplicit(5)
	if err != nil {
		t.Fatal(err)
	}
	p := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	in := mustInstance(t, g, p)
	tests := []struct {
		voter int
		alpha float64
		want  []int
	}{
		{0, 0.1, []int{1, 2, 3, 4}},
		{0, 0.25, []int{2, 3, 4}},
		{2, 0.2, []int{3, 4}},
		{2, 0.21, []int{4}},
		{4, 0.1, nil},
	}
	for _, tt := range tests {
		view := in.ApprovalView(tt.alpha)
		if got := view.Set(tt.voter); !slices.Equal(got, tt.want) {
			t.Fatalf("Set(%d) at alpha %v = %v, want %v", tt.voter, tt.alpha, got, tt.want)
		}
		if c := view.Count(tt.voter); c != len(tt.want) {
			t.Fatalf("Count(%d) at alpha %v = %d, want %d", tt.voter, tt.alpha, c, len(tt.want))
		}
	}
}

func TestCompleteApprovalFastPathMatchesExplicit(t *testing.T) {
	s := rng.New(42)
	const n = 60
	p := make([]float64, n)
	for i := range p {
		p[i] = s.Float64()
	}
	// Force some exact ties to exercise boundary handling.
	p[5] = p[10]
	p[7] = p[10]

	expTop, err := graph.CompleteExplicit(n)
	if err != nil {
		t.Fatal(err)
	}
	exp := mustInstance(t, expTop, p)
	imp := mustInstance(t, graph.NewComplete(n), p)

	for _, alpha := range []float64{0, 0.01, 0.1, 0.5, 1} {
		expView, impView := exp.ApprovalView(alpha), imp.ApprovalView(alpha)
		for v := 0; v < n; v++ {
			want := expView.Count(v)
			if got := impView.Count(v); got != want {
				t.Fatalf("alpha=%v voter=%d: fast count %d, scan count %d", alpha, v, got, want)
			}
		}
	}
}

// TestCompleteApprovalSetMatchesNeighborScan: on K_n, ApprovalView.Set scans
// the voters instead of Neighbors' list; on random instances with tied
// competencies its sets, order included, equal a scan over Neighbors.
func TestCompleteApprovalSetMatchesNeighborScan(t *testing.T) {
	s := rng.New(43)
	for trial := 0; trial < 20; trial++ {
		n := 1 + s.IntN(40)
		p := make([]float64, n)
		for i := range p {
			p[i] = float64(1+s.IntN(4)) / 5
		}
		in := mustInstance(t, graph.NewComplete(n), p)
		for _, alpha := range []float64{0, 0.2, 0.3, 1} {
			view := in.ApprovalView(alpha)
			for v := 0; v < n; v++ {
				var want []int
				for _, j := range in.Topology().Neighbors(v) {
					if p[j] >= p[v]+alpha {
						want = append(want, j)
					}
				}
				if got := view.Set(v); !slices.Equal(got, want) {
					t.Fatalf("n=%d alpha=%v voter=%d: Set %v, Neighbors scan %v", n, alpha, v, got, want)
				}
			}
		}
	}
}

func TestQuickApprovalCountMatchesSetSize(t *testing.T) {
	f := func(seed uint64, nRaw uint8, alphaRaw float64) bool {
		n := int(nRaw%20) + 2
		alpha := math.Abs(math.Mod(alphaRaw, 1))
		if math.IsNaN(alpha) {
			alpha = 0.1
		}
		s := rng.New(seed)
		p := make([]float64, n)
		for i := range p {
			p[i] = s.Float64()
		}
		g, err := graph.ErdosRenyi(n, 0.4, s)
		if err != nil {
			return false
		}
		in, err := NewInstance(g, p)
		if err != nil {
			return false
		}
		view, wider := in.ApprovalView(alpha), in.ApprovalView(alpha+0.1)
		for v := 0; v < n; v++ {
			if view.Count(v) != len(view.Set(v)) {
				return false
			}
			// Approval sets shrink as alpha grows.
			if view.Count(v) < wider.Count(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// FuzzApprovalView holds every ApprovalView query to a brute-force scan with
// Approves, on K_n, its explicit twin and a sparse graph: Set is the scan,
// in ascending order, and Count its size; Sample returns a member of Set,
// or (-1, false) without drawing a word when Set is empty; SampleAll equals
// Sample called voter by voter and leaves the stream at the same next word.
// Count and Set are checked before any draw, so a view whose count keeps a
// voter in its own set fails here instead of spinning in its draw.
func FuzzApprovalView(f *testing.F) {
	for _, alpha := range []float64{0, 1e-17, math.NaN(), 0.05} {
		f.Add(uint64(1), uint8(7), alpha, true)
		f.Add(uint64(2), uint8(30), alpha, false)
	}
	f.Add(uint64(3), uint8(1), 0.0, true)
	f.Add(uint64(4), uint8(12), -0.25, true)
	f.Add(uint64(5), uint8(12), math.Inf(1), false)
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint8, alpha float64, ties bool) {
		n := 1 + int(nRaw%40)
		s := rng.New(seed)
		p := make([]float64, n)
		for i := range p {
			if ties {
				p[i] = float64(s.IntN(5)) / 4
			} else {
				p[i] = s.Float64()
			}
		}
		p[s.IntN(n)] = math.Copysign(0, -1)
		explicit, err := graph.CompleteExplicit(n)
		if err != nil {
			t.Fatal(err)
		}
		sparse, err := graph.ErdosRenyi(n, 0.3, s)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name string
			top  graph.Topology
		}{{"K_n", graph.NewComplete(n)}, {"explicit K_n", explicit}, {"sparse", sparse}} {
			name, in := tc.name, mustInstance(t, tc.top, p)
			view := in.ApprovalView(alpha)
			sets := make([][]int, n)
			for v := range n {
				for j := range n {
					if in.Approves(v, j, alpha) {
						sets[v] = append(sets[v], j)
					}
				}
				if got := view.Set(v); !slices.Equal(got, sets[v]) {
					t.Fatalf("%s, alpha %v: Set(%d) = %v, scan %v", name, alpha, v, got, sets[v])
				}
				if got := view.Count(v); got != len(sets[v]) {
					t.Fatalf("%s, alpha %v: Count(%d) = %d, scan %v", name, alpha, v, got, sets[v])
				}
			}
			perVoter, all := rng.New(seed), rng.New(seed)
			want := make([]int, n)
			for v := range n {
				j, ok := view.Sample(v, perVoter)
				if ok != (len(sets[v]) > 0) || (ok && !slices.Contains(sets[v], j)) || (!ok && j != -1) {
					t.Fatalf("%s, alpha %v: Sample(%d) = %d, %v outside %v", name, alpha, v, j, ok, sets[v])
				}
				if !ok {
					j = NoDelegate
					drawn, fresh := rng.New(seed+1), rng.New(seed+1)
					view.Sample(v, drawn)
					if drawn.Uint64() != fresh.Uint64() {
						t.Fatalf("%s, alpha %v: Sample(%d) drew a word for an empty set", name, alpha, v)
					}
				}
				want[v] = j
			}
			got := make([]int, n)
			view.SampleAll(got, all)
			if !slices.Equal(got, want) {
				t.Fatalf("%s, alpha %v: SampleAll %v, Sample %v", name, alpha, got, want)
			}
			if a, b := all.Uint64(), perVoter.Uint64(); a != b {
				t.Fatalf("%s, alpha %v: next word %#x after SampleAll, %#x after Sample", name, alpha, a, b)
			}
		}
	})
}

func TestSampleApprovedUniform(t *testing.T) {
	g, err := graph.CompleteExplicit(4)
	if err != nil {
		t.Fatal(err)
	}
	in := mustInstance(t, g, []float64{0.1, 0.6, 0.7, 0.8})
	view := in.ApprovalView(0.2)
	s := rng.New(1)
	counts := make(map[int]int)
	const trials = 30000
	for i := 0; i < trials; i++ {
		j, ok := view.Sample(0, s)
		if !ok {
			t.Fatal("approval set should be nonempty")
		}
		counts[j]++
	}
	if len(counts) != 3 {
		t.Fatalf("expected 3 distinct delegates, got %v", counts)
	}
	for j, c := range counts {
		f := float64(c) / trials
		if math.Abs(f-1.0/3) > 0.02 {
			t.Fatalf("delegate %d frequency %v, want ~1/3", j, f)
		}
	}
}

func TestSampleApprovedEmpty(t *testing.T) {
	in := mustInstance(t, graph.NewComplete(3), []float64{0.5, 0.5, 0.5})
	if _, ok := in.ApprovalView(0.1).Sample(0, rng.New(2)); ok {
		t.Fatal("no voter is 0.1 better; sample should fail")
	}
}

func TestCompleteSampleApprovedMatchesDistribution(t *testing.T) {
	// The complete-topology fast path must sample uniformly over the same
	// set as the explicit scan.
	p := []float64{0.2, 0.5, 0.5, 0.8, 0.9}
	view := mustInstance(t, graph.NewComplete(len(p)), p).ApprovalView(0.25)
	s := rng.New(3)
	counts := make(map[int]int)
	const trials = 40000
	for i := 0; i < trials; i++ {
		j, ok := view.Sample(1, s)
		if !ok {
			t.Fatal("expected delegates")
		}
		counts[j]++
	}
	// Approval set of voter 1 (p=0.5, alpha=0.25): voters 3 (0.8), 4 (0.9).
	if len(counts) != 2 || counts[3] == 0 || counts[4] == 0 {
		t.Fatalf("unexpected delegate set %v", counts)
	}
	f3 := float64(counts[3]) / trials
	if math.Abs(f3-0.5) > 0.02 {
		t.Fatalf("delegate 3 frequency %v, want ~0.5", f3)
	}
}

func TestCompleteSampleApprovedAlphaZeroExcludesSelf(t *testing.T) {
	p := []float64{0.5, 0.5, 0.5}
	view := mustInstance(t, graph.NewComplete(3), p).ApprovalView(0)
	s := rng.New(4)
	for i := 0; i < 1000; i++ {
		j, ok := view.Sample(1, s)
		if !ok {
			t.Fatal("alpha=0 with ties should have delegates")
		}
		if j == 1 {
			t.Fatal("sampled self")
		}
	}
}

func TestTopByCompetency(t *testing.T) {
	in := mustInstance(t, graph.NewComplete(5), []float64{0.3, 0.9, 0.1, 0.7, 0.5})
	got := in.TopByCompetency(3)
	want := []int{1, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TopByCompetency(3) = %v, want %v", got, want)
		}
	}
	if len(in.TopByCompetency(-1)) != 0 {
		t.Fatal("negative k should clamp to 0")
	}
	if len(in.TopByCompetency(99)) != 5 {
		t.Fatal("large k should clamp to n")
	}
}

func TestMeanCompetency(t *testing.T) {
	in := mustInstance(t, graph.NewComplete(4), []float64{0.2, 0.4, 0.6, 0.8})
	if got := in.MeanCompetency(); math.Abs(got-0.5) > 1e-15 {
		t.Fatalf("MeanCompetency = %v", got)
	}
	empty := mustInstance(t, graph.NewComplete(0), nil)
	if empty.MeanCompetency() != 0 {
		t.Fatal("empty mean should be 0")
	}
}

func TestSortedOrderIsStable(t *testing.T) {
	p := []float64{0.5, 0.5, 0.2}
	in := mustInstance(t, graph.NewComplete(3), p)
	top := in.TopByCompetency(3)
	if !sort.SliceIsSorted(top, func(a, b int) bool {
		return in.Competency(top[a]) > in.Competency(top[b])
	}) && !sort.SliceIsSorted(top, func(a, b int) bool {
		return in.Competency(top[a]) >= in.Competency(top[b])
	}) {
		t.Fatalf("TopByCompetency not ordered by competency: %v", top)
	}
	if in.Competency(top[0]) < in.Competency(top[1]) || in.Competency(top[1]) < in.Competency(top[2]) {
		t.Fatalf("TopByCompetency not non-increasing: %v", top)
	}
}

// TestNegativeZeroCompetency: validation accepts a competency of −0, and
// the instance must rank it as the zero it is. Stored as −0, its sign bit
// would put it above every positive competency in the sorted tables, so
// complete-topology approval counts and draws would disagree with the
// approval set. Both NewInstance and WithCompetency must normalise it.
func TestNegativeZeroCompetency(t *testing.T) {
	negZero := math.Copysign(0, -1)
	fromNew := mustInstance(t, graph.NewComplete(3), []float64{negZero, 0.5, 0.9})
	patched, err := mustInstance(t, graph.NewComplete(3), []float64{0.7, 0.5, 0.9}).WithCompetency(0, negZero)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		in   *Instance
	}{{"NewInstance", fromNew}, {"WithCompetency", patched}} {
		name, in := c.name, c.in
		if bits := math.Float64bits(in.Competency(0)); bits != 0 {
			t.Errorf("%s: Competency(0) bits %#x, want +0", name, bits)
		}
		if got := in.CompetencyOrder(); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
			t.Errorf("%s: CompetencyOrder = %v, want [0 1 2]", name, got)
		}
		if got := in.TopByCompetency(1); len(got) != 1 || got[0] != 2 {
			t.Errorf("%s: TopByCompetency(1) = %v, want [2]", name, got)
		}
		s := rng.New(5)
		for _, alpha := range []float64{0, 0.1, 0.45} {
			view := in.ApprovalView(alpha)
			for v := 0; v < in.N(); v++ {
				set := view.Set(v)
				if got := view.Count(v); got != len(set) {
					t.Errorf("%s: Count(%d) at alpha %v = %d, Set = %v", name, v, alpha, got, set)
				}
				for range 50 {
					d, ok := view.Sample(v, s)
					if ok != (len(set) > 0) || (ok && !in.Approves(v, d, alpha)) {
						t.Errorf("%s: Sample(%d) at alpha %v = %d, %v outside Set %v", name, v, alpha, d, ok, set)
						break
					}
				}
			}
		}
	}
}

// TestSortedTablesMatchStableSort: NewInstance's byCompetency and sortedP
// are the order a stable sort by competency gives, ties by ascending id,
// on vectors with ties, zeros (−0 among them), ones and competencies small
// enough to vary the keys' top byte.
func TestSortedTablesMatchStableSort(t *testing.T) {
	s := rng.New(rng.Derive(21, "core", "sorted-tables"))
	for _, n := range []int{0, 1, 2, 1000} {
		for trial := 0; trial < 20; trial++ {
			p := make([]float64, n)
			for i := range p {
				switch {
				case trial < 2: // every key shares its top byte, or every byte
					p[i] = 0.5 + 0.25*s.Float64()*float64(trial)
				case s.IntN(5) == 0:
					p[i] = float64(s.IntN(2))
				case s.IntN(4) == 0:
					p[i] = float64(s.IntN(4)) / 4
				case s.IntN(3) == 0:
					p[i] = []float64{math.Copysign(0, -1), 1e-5 * s.Float64()}[s.IntN(2)]
				default:
					p[i] = s.Float64()
				}
			}
			in := mustInstance(t, graph.NewComplete(n), p)
			want := make([]int, n)
			for i := range want {
				want[i] = i
			}
			sort.SliceStable(want, func(a, b int) bool { return p[want[a]] < p[want[b]] })
			for i, id := range want {
				if in.byCompetency[i] != id || math.Float64bits(in.sortedP[i]) != math.Float64bits(positiveZero(p[id])) {
					t.Fatalf("n = %d, trial %d, rank %d: (id %d, p %v), want (id %d, p %v)",
						n, trial, i, in.byCompetency[i], in.sortedP[i], id, p[id])
				}
			}
			if len(in.byCompetency) != n || len(in.sortedP) != n {
				t.Fatalf("n = %d: tables of %d and %d entries", n, len(in.byCompetency), len(in.sortedP))
			}
		}
	}
}
