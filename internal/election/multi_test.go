package election

import (
	"context"
	"errors"
	"math"
	"sort"
	"testing"

	"liquid/internal/core"
	"liquid/internal/graph"
	"liquid/internal/mechanism"
	"liquid/internal/rng"
)

func TestMultiDelegationAllDirectEqualsDirect(t *testing.T) {
	p := []float64{0.4, 0.6, 0.7, 0.3, 0.55}
	in := mustInstance(t, graph.NewComplete(5), p)
	md := &mechanism.MultiDelegation{Delegates: make([][]int, 5)}
	got, err := MultiDelegationProbability(context.Background(), in, md, 200000, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	want, err := DirectProbabilityExact(in)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("all-direct multi %v vs direct %v", got, want)
	}
}

func TestMultiDelegationSingleDelegateMatchesChain(t *testing.T) {
	// Voter 0 consults only voter 2: its vote is a copy of voter 2's. That
	// is exactly the single-delegate weight-2 situation.
	p := []float64{0.2, 0.6, 0.9}
	in := mustInstance(t, graph.NewComplete(3), p)
	md := &mechanism.MultiDelegation{Delegates: [][]int{{2}, nil, nil}}
	got, err := MultiDelegationProbability(context.Background(), in, md, 300000, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}

	d := core.NewDelegationGraph(3)
	if err := d.SetDelegate(0, 2); err != nil {
		t.Fatal(err)
	}
	res, err := d.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ResolutionProbabilityExact(in, res)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("multi single-delegate %v vs chain %v", got, want)
	}
}

func TestMultiDelegationRejectsCycles(t *testing.T) {
	p := []float64{0.5, 0.5}
	in := mustInstance(t, graph.NewComplete(2), p)
	md := &mechanism.MultiDelegation{Delegates: [][]int{{1}, {0}}}
	if _, err := MultiDelegationProbability(context.Background(), in, md, 100, rng.New(3)); !errors.Is(err, core.ErrCyclicDelegation) {
		t.Fatalf("err = %v", err)
	}
}

func TestMultiDelegationRejectsBadIndices(t *testing.T) {
	in := mustInstance(t, graph.NewComplete(2), []float64{0.4, 0.6})
	for _, ds := range [][][]int{
		{{5}, nil},
		{{0}, nil}, // self
	} {
		md := &mechanism.MultiDelegation{Delegates: ds}
		if _, err := MultiDelegationProbability(context.Background(), in, md, 100, rng.New(4)); err == nil {
			t.Fatalf("delegates %v accepted", ds)
		}
	}
}

func TestMultiDelegationSizeMismatch(t *testing.T) {
	in := mustInstance(t, graph.NewComplete(3), []float64{0.4, 0.5, 0.6})
	md := &mechanism.MultiDelegation{Delegates: make([][]int, 2)}
	if _, err := MultiDelegationProbability(context.Background(), in, md, 100, rng.New(5)); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

// TestEvaluateMultiMechanismGain: multi-delegation gains over direct
// voting, and its replications, which run on the Plan's worker loop, give
// the same Result bit for bit at every worker count.
func TestEvaluateMultiMechanismGain(t *testing.T) {
	const n = 151
	s := rng.New(6)
	p := make([]float64, n)
	for i := range p {
		p[i] = 0.3 + 0.35*s.Float64()
	}
	in := mustInstance(t, graph.NewComplete(n), p)
	var first *Result
	for _, workers := range []int{1, 4} {
		res, err := EvaluateMultiMechanism(context.Background(), in, mechanism.MultiDelegate{Alpha: 0.05, K: 3}, Options{
			Replications: 8, VoteSamples: 2000, Seed: 7, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Gain <= 0 {
			t.Fatalf("multi-delegate gain = %v (PM=%v PD=%v)", res.Gain, res.PM, res.PD)
		}
		if res.MeanDelegators == 0 {
			t.Fatal("expected delegators")
		}
		if first == nil {
			first = res
		} else {
			sameResult(t, "4 workers", res, first)
		}
	}
}

func TestEvaluateMultiMechanismEmpty(t *testing.T) {
	in := mustInstance(t, graph.NewComplete(0), nil)
	if _, err := EvaluateMultiMechanism(context.Background(), in, mechanism.MultiDelegate{Alpha: 0.1, K: 2}, Options{}); !errors.Is(err, ErrNoVoters) {
		t.Fatalf("err = %v", err)
	}
}

func TestWeightedMultiDominantDelegate(t *testing.T) {
	// Voter 0 consults delegates {1, 2} with weights {10, 1}: its vote is a
	// copy of voter 1's (weight 10 always wins). Compare with the exact
	// chain equivalent.
	p := []float64{0.2, 0.9, 0.3}
	in := mustInstance(t, graph.NewComplete(3), p)
	md := &mechanism.MultiDelegation{
		Delegates: [][]int{{1, 2}, nil, nil},
		Weights:   [][]float64{{10, 1}, nil, nil},
	}
	got, err := MultiDelegationProbability(context.Background(), in, md, 300000, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	d := core.NewDelegationGraph(3)
	if err := d.SetDelegate(0, 1); err != nil {
		t.Fatal(err)
	}
	res, err := d.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ResolutionProbabilityExact(in, res)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("dominant-weight multi %v vs chain %v", got, want)
	}
}

func TestWeightedMultiWeightLengthMismatch(t *testing.T) {
	in := mustInstance(t, graph.NewComplete(3), []float64{0.2, 0.5, 0.9})
	md := &mechanism.MultiDelegation{
		Delegates: [][]int{{1, 2}, nil, nil},
		Weights:   [][]float64{{1}, nil, nil},
	}
	if _, err := MultiDelegationProbability(context.Background(), in, md, 100, rng.New(22)); err == nil {
		t.Fatal("weight length mismatch accepted")
	}
}

func TestEvaluateWeightedMultiMechanism(t *testing.T) {
	const n = 101
	s := rng.New(23)
	p := make([]float64, n)
	for i := range p {
		p[i] = 0.3 + 0.19*s.Float64()
	}
	in := mustInstance(t, graph.NewComplete(n), p)
	res, err := EvaluateMultiMechanism(context.Background(), in, mechanism.WeightedMultiDelegate{
		Alpha: 0.05, K: 3, Weights: mechanism.HarmonicWeights,
	}, Options{Replications: 6, VoteSamples: 1500, Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	if res.Gain <= 0 {
		t.Fatalf("weighted multi-delegate gain = %v", res.Gain)
	}
}

func TestMultiDelegationRejectsShortWeights(t *testing.T) {
	// Weights has a row for voter 0 only; voters 1 and 2 have none.
	in := mustInstance(t, graph.NewComplete(3), []float64{0.2, 0.5, 0.9})
	md := &mechanism.MultiDelegation{
		Delegates: [][]int{{1, 2}, nil, nil},
		Weights:   [][]float64{{1, 1}},
	}
	if _, err := MultiDelegationProbability(context.Background(), in, md, 100, rng.New(25)); !errors.Is(err, core.ErrInvalidDelegation) {
		t.Fatalf("err = %v, want ErrInvalidDelegation", err)
	}
}

func TestMultiDelegationRejectsBadWeights(t *testing.T) {
	in := mustInstance(t, graph.NewComplete(3), []float64{0.2, 0.9, 0.3})
	for _, w := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		md := &mechanism.MultiDelegation{
			Delegates: [][]int{{1, 2}, nil, nil},
			Weights:   [][]float64{{w, 1}, nil, nil},
		}
		if _, err := MultiDelegationProbability(context.Background(), in, md, 100, rng.New(26)); !errors.Is(err, core.ErrInvalidDelegation) {
			t.Errorf("weight %v: err = %v, want ErrInvalidDelegation", w, err)
		}
	}
}

// multiDelegationReference is the one-sample-at-a-time Monte Carlo loop
// that MultiDelegationProbability's bit-sliced kernel must reproduce bit
// for bit, draw for draw. It trusts md to be valid (the caller checks it
// through MultiDelegationProbability first). Besides the estimate it
// returns every effective vote: trace[t][v] is voter v's vote in sample t.
func multiDelegationReference(in *core.Instance, md *mechanism.MultiDelegation, samples int, s *rng.Stream) (float64, [][]bool) {
	n := in.N()
	if samples <= 0 {
		samples = 2000
	}
	order := descendingCompetency(in)
	trace := make([][]bool, samples)
	wins := 0
	for t := 0; t < samples; t++ {
		votes := make([]bool, n)
		correct := 0
		for _, v := range order {
			own := s.Bernoulli(in.Competency(v))
			ds := md.Delegates[v]
			if len(ds) == 0 {
				votes[v] = own
			} else {
				var yes, total float64
				for k, j := range ds {
					w := 1.0
					if md.Weights != nil && md.Weights[v] != nil {
						w = md.Weights[v][k]
					}
					total += w
					if votes[j] {
						yes += w
					}
				}
				switch {
				case 2*yes > total:
					votes[v] = true
				case 2*yes < total:
					votes[v] = false
				default:
					votes[v] = own
				}
			}
			if votes[v] {
				correct++
			}
		}
		if 2*correct > n {
			wins++
		}
		trace[t] = votes
	}
	return float64(wins) / float64(samples), trace
}

// descendingCompetency returns the voters by descending competency, ties
// by id: the order in which the scalar loop draws.
func descendingCompetency(in *core.Instance) []int {
	order := make([]int, in.N())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return in.Competency(order[a]) > in.Competency(order[b])
	})
	return order
}

// kernelTrace runs the compiled kernel block by block from seed and checks
// every effective vote against the reference trace, so a kernel fault
// shows even where it does not move the estimate.
func kernelTrace(t *testing.T, in *core.Instance, md *mechanism.MultiDelegation, seed uint64, trace [][]bool) {
	t.Helper()
	k, err := compileMulti(in, md)
	if err != nil {
		t.Fatal(err)
	}
	order := descendingCompetency(in)
	src := rng.New(seed).Source()
	for done := 0; done < len(trace); done += 64 {
		lanes := min(64, len(trace)-done)
		k.block(src, lanes)
		for lane := 0; lane < lanes; lane++ {
			for idx, v := range order {
				if got := k.vote[idx]>>lane&1 == 1; got != trace[done+lane][v] {
					t.Fatalf("sample %d voter %d (position %d): kernel votes %v, reference %v", done+lane, v, idx, got, trace[done+lane][v])
				}
			}
		}
	}
}

// FuzzMultiDelegationEquivalence pins the bit-sliced kernel to the scalar
// reference: the same estimate to the bit, the stream left at the same
// position, and every effective vote of every sample equal (kernelTrace).
// Competencies mix exact 0, 1 and 0.5 (voters that draw nothing,
// and ties in the competency order) with uniform values; delegations come
// from MultiDelegate and WeightedMultiDelegate with equal, harmonic and
// tie-prone weights, some weight rows nil; sample counts straddle the
// 64-sample block.
func FuzzMultiDelegationEquivalence(f *testing.F) {
	for _, c := range []struct {
		seed          uint64
		n             uint16
		shape         uint8
		samplesChoice uint16
	}{
		{1, 0, 0, 0}, {2, 1, 1, 1}, {3, 10, 2, 2}, {4, 100, 3, 3}, {5, 299, 4, 4},
		{6, 50, 0x25, 9}, {7, 200, 0x46, 3}, {8, 77, 0x87, 2}, {9, 30, 0xff, 14},
		{10, 250, 0x64, 1}, {11, 64, 0xc3, 0}, {12, 150, 0xc6, 2}, {13, 60, 0xc7, 3},
		{14, 10, 0xcb, 4}, {15, 150, 0xd3, 1}, {17, 1, 0x03, 2}, {18, 9, 0x07, 3},
	} {
		f.Add(c.seed, c.n, c.shape, c.samplesChoice)
	}
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint16, shape uint8, samplesChoice uint16) {
		n := 1 + int(nRaw)%300
		s := rng.New(seed)
		p := make([]float64, n)
		for i := range p {
			switch s.IntN(16) {
			case 0:
				p[i] = 0
			case 1:
				p[i] = 1
			case 2:
				p[i] = 0.5
			default:
				p[i] = s.Float64()
			}
		}
		in := mustInstance(t, graph.NewComplete(n), p)

		alpha := []float64{0.001, 0.01, 0.05, 0.2}[shape&3]
		k := 1 + int(shape>>2&7)
		var mech mechanism.MultiMechanism
		switch shape >> 5 {
		case 0, 1:
			mech = mechanism.MultiDelegate{Alpha: alpha, K: k}
		case 2, 3:
			mech = mechanism.WeightedMultiDelegate{Alpha: alpha, K: k, Weights: mechanism.EqualWeights}
		case 4, 5:
			mech = mechanism.WeightedMultiDelegate{Alpha: alpha, K: k, Weights: mechanism.HarmonicWeights}
		default:
			// Weights from {0.5, 1, 1.5}: ties (0.5 + 1 against 1.5) are
			// common, and all-1 rows take the unit-weight path.
			ws := s.DeriveString("weights")
			mech = mechanism.WeightedMultiDelegate{Alpha: alpha, K: k, Weights: func(k int) []float64 {
				w := make([]float64, k)
				for i := range w {
					w[i] = 0.5 * float64(1+ws.IntN(3))
				}
				return w
			}}
		}
		md, err := mech.ApplyMulti(in, s.DeriveString("mechanism"))
		if err != nil {
			t.Fatal(err)
		}
		if md.Weights != nil && shape&1 == 1 {
			for v := range md.Weights {
				if v%3 == 0 {
					md.Weights[v] = nil
				}
			}
		}

		samples := 1 + int(samplesChoice)%400
		if c := samplesChoice % 5; c < 4 {
			samples = []int{1, 63, 64, 65}[c]
		}
		votes := seed ^ 0x9e3779b97f4a7c15
		a, b := rng.New(votes), rng.New(votes)
		got, err := MultiDelegationProbability(context.Background(), in, md, samples, a)
		if err != nil {
			t.Fatal(err)
		}
		want, trace := multiDelegationReference(in, md, samples, b)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d %s samples=%d: kernel %v, reference %v", n, mech.Name(), samples, got, want)
		}
		if ga, gb := a.Uint64(), b.Uint64(); ga != gb {
			t.Fatalf("n=%d %s samples=%d: stream position differs after the call", n, mech.Name(), samples)
		}
		kernelTrace(t, in, md, votes, trace)
	})
}
