package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"liquid/internal/graph"
	"liquid/internal/rng"
)

// idOrderResolve is the reference resolution: every chain followed from
// its voter in id order with an explicit stack, the walk Resolve ran
// before it took a visiting order, and the voters tallied in a second pass.
// Its errors are Resolve's, word for word.
func idOrderResolve(d *DelegationGraph, initial []int) (*Resolution, error) {
	n := d.N()
	const unknown, onStack = -1, -2
	depth, sink := make([]int, n), make([]int, n)
	for i := range depth {
		depth[i] = unknown
	}
	for start := range n {
		var stack []int
		v := start
		for depth[v] == unknown {
			if d.Delegate[v] == NoDelegate {
				depth[v], sink[v] = 0, v
				break
			}
			depth[v] = onStack
			stack = append(stack, v)
			if v = d.Delegate[v]; depth[v] == onStack {
				return nil, fmt.Errorf("%w: cycle through voter %d", ErrCyclicDelegation, v)
			}
		}
		for k := len(stack) - 1; k >= 0; k-- {
			u := stack[k]
			depth[u], sink[u] = depth[d.Delegate[u]]+1, sink[d.Delegate[u]]
		}
	}
	res := &Resolution{SinkOf: make([]int, n), Weight: make([]int, n), Sinks: []int{}}
	for i := range n {
		if d.abstained(i) {
			if d.Delegate[i] == NoDelegate {
				return nil, fmt.Errorf("%w: voter %d abstained without a delegation option", ErrInvalidDelegation, i)
			}
			res.SinkOf[i] = NoDelegate
			res.Delegators++
			continue
		}
		w := 1
		if initial != nil {
			w = initial[i]
		}
		res.SinkOf[i] = sink[i]
		res.Weight[sink[i]] += w
		res.TotalWeight += w
		res.LongestChain = max(res.LongestChain, depth[i])
		if d.Delegate[i] == NoDelegate {
			res.Sinks = append(res.Sinks, i)
		} else {
			res.Delegators++
		}
	}
	for _, s := range res.Sinks {
		res.MaxWeight = max(res.MaxWeight, res.Weight[s])
	}
	return res, nil
}

// sameResolution fails t unless a resolve returned what the reference did:
// every Resolution field, or the same error text.
func sameResolution(t *testing.T, what string, want *Resolution, wantErr error, got *Resolution, gotErr error) {
	t.Helper()
	if wantErr != nil || gotErr != nil {
		if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
			t.Fatalf("%s: error %v, want %v", what, gotErr, wantErr)
		}
		return
	}
	g := *got
	if len(g.Sinks) == 0 {
		g.Sinks = []int{}
	}
	if !reflect.DeepEqual(&g, want) {
		t.Fatalf("%s: resolution %+v, want %+v", what, got, want)
	}
}

// orderGraph decodes a fuzz input into a delegation profile with its
// instance and initial weights. Each voter takes three bytes: its
// competency on a six-level grid (so ties are common), its edge (direct,
// upward to a voter at least as competent, or to anyone, itself included),
// and its initial weight in 0–3 with an abstention bit.
func orderGraph(data []byte) (*Instance, *DelegationGraph, []int) {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	n := 1 + int(at(0))%32
	weighted, abstaining := at(1)&1 != 0, at(1)&2 != 0
	p := make([]float64, n)
	for i := range n {
		p[i] = float64(at(2+3*i)%6) / 5
	}
	in, err := NewInstance(graph.NewComplete(n), p)
	if err != nil {
		panic(err)
	}
	d := NewDelegationGraph(n)
	var initial []int
	if weighted {
		initial = make([]int, n)
	}
	for i := range n {
		e, w := at(3+3*i), at(4+3*i)
		switch e % 4 {
		case 1, 2:
			var up []int
			for j := range n {
				if j != i && p[j] >= p[i] {
					up = append(up, j)
				}
			}
			if len(up) > 0 {
				d.Delegate[i] = up[int(e/4)%len(up)]
			}
		case 3:
			d.Delegate[i] = int(e/4) % n
		}
		if weighted {
			initial[i] = int(w % 4)
		}
		if abstaining && w&0x80 != 0 {
			d.SetAbstained(i)
		}
	}
	return in, d, initial
}

// FuzzResolveOrder resolves arbitrary profiles (cycles, abstainers with and
// without a delegate, zero initial weights, tied competencies) in
// competency order and in id order through one reused Resolver, and again
// after a resolve of a larger profile, and holds every answer to the
// id-order reference.
func FuzzResolveOrder(f *testing.F) {
	f.Add([]byte{1, 0, 3, 3, 0, 3, 1, 0})          // voters 0 <-> 1 at equal competencies
	f.Add([]byte{5, 0, 1, 1, 0, 2, 1, 0, 3, 0, 0}) // an upward chain
	f.Add([]byte{7, 3, 2, 5, 0x81, 2, 6, 0x82, 4, 0, 3, 4, 3, 0x80, 1, 13, 2})
	f.Add([]byte{12, 2, 0, 0, 0x80, 5, 1, 0, 5, 2, 3, 1, 11, 0x80})
	f.Add([]byte{30, 1, 5, 9, 0, 4, 1, 1, 3, 2, 2, 2, 5, 3, 1, 0, 0, 4, 9, 2, 5, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		in, d, initial := orderGraph(data)
		want, wantErr := idOrderResolve(d, initial)
		var rv Resolver
		for _, step := range []struct {
			what  string
			order []int
		}{
			{"competency order", in.CompetencyOrder()},
			{"id order", nil},
			{"competency order again", in.CompetencyOrder()},
		} {
			got, err := rv.ResolveWithWeights(d, initial, step.order)
			sameResolution(t, step.what, want, wantErr, got, err)
		}
		// A larger profile, itself possibly cyclic, leaves longer scratch and
		// perhaps a dirty Weight vector behind.
		bigIn, big, bigInitial := orderGraph(append([]byte{byte(in.N() + 3)}, data[min(1, len(data)):]...))
		_, _ = rv.ResolveWithWeights(big, bigInitial, bigIn.CompetencyOrder())
		got, err := rv.ResolveWithWeights(d, initial, in.CompetencyOrder())
		sameResolution(t, "after a larger profile", want, wantErr, got, err)
		got, err = d.ResolveWithWeights(initial)
		sameResolution(t, "a fresh resolve", want, wantErr, got, err)
	})
}

// TestResolveCycleNamesIDOrderVoter: voters 0 and 1 delegate to each other
// at equal competencies, and the competency order visits 1 first, yet the
// error names voter 0, as the id-order visit meets the cycle.
func TestResolveCycleNamesIDOrderVoter(t *testing.T) {
	in, err := NewInstance(graph.NewComplete(3), []float64{0.6, 0.6, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	d := &DelegationGraph{Delegate: []int{1, 0, 0}}
	var rv Resolver
	for _, order := range [][]int{in.CompetencyOrder(), nil} {
		_, err := rv.Resolve(d, order)
		if want := "core: cyclic delegation: cycle through voter 0"; err == nil || err.Error() != want {
			t.Fatalf("order %v: error %v, want %q", order, err, want)
		}
	}
	if _, err := rv.Resolve(d, []int{0, 1}); err == nil {
		t.Fatal("a two-voter order for three voters was accepted")
	}
}

// TestSampleAllMatchesSample holds ApprovalView.SampleAll to Sample called
// voter by voter: the same delegate for every voter, and the stream left at
// the same next word.
func TestSampleAllMatchesSample(t *testing.T) {
	const n = 300
	s := rng.New(rng.Derive(41, "core", "sample-all"))
	p := make([]float64, n)
	for i := range p {
		p[i] = 0.3 + 0.5*s.Float64()
	}
	// Ties, so at alpha = 0 voters draw their equals and themselves.
	p[7], p[8], p[9] = p[3], p[3], p[3]
	explicit := graph.NewGraph(n)
	for v := range n {
		for _, u := range []int{(v + 1) % n, (v + 7) % n} {
			if !explicit.HasEdge(v, u) {
				if err := explicit.AddEdge(v, u); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, tc := range []struct {
		name string
		top  graph.Topology
		p    []float64
	}{
		{"complete", graph.NewComplete(n), p},
		{"explicit", explicit, p},
		{"one voter", graph.NewComplete(1), []float64{0.5}},
	} {
		in, err := NewInstance(tc.top, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		// 0 puts each voter in its own suffix; 0.1 empties the top voters'
		// sets (p above 0.7), and 0.6 every voter's.
		for _, alpha := range []float64{0, 0.1, 0.6} {
			view := in.ApprovalView(alpha)
			seed := rng.Derive(41, "core", "sample-all", tc.name, fmt.Sprint(alpha))
			perVoter, all := rng.New(seed), rng.New(seed)
			want := make([]int, in.N())
			for i := range want {
				j, ok := view.Sample(i, perVoter)
				if !ok {
					j = NoDelegate
				}
				want[i] = j
			}
			got := make([]int, in.N())
			for i := range got {
				got[i] = -7
			}
			view.SampleAll(got, all)
			if !slices.Equal(got, want) {
				t.Fatalf("%s, alpha %v: SampleAll %v, want %v", tc.name, alpha, got, want)
			}
			if a, b := all.Uint64(), perVoter.Uint64(); a != b {
				t.Fatalf("%s, alpha %v: next word %#x after SampleAll, %#x after Sample", tc.name, alpha, a, b)
			}
		}
	}
}
