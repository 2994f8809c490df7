package election

import (
	"context"
	"math"
	"testing"

	"liquid/internal/core"
	"liquid/internal/graph"
	"liquid/internal/rng"
)

// freshEquivalent rebuilds the derived plan's instance from scratch — the
// plan a caller with no delta machinery would construct — for bit-identity
// comparison. The P^D memo is keyed by content, so the fresh plan reads the
// derived chain's memoized P^D; deltaSweepPoints' cache-disabled point is
// what checks that value against a from-scratch kernel run.
func freshEquivalent(t *testing.T, p *Plan) *Plan {
	t.Helper()
	in := mustInstance(t, p.Instance().Topology(), p.Instance().Competencies())
	fresh, err := NewPlan(in, p.opts)
	if err != nil {
		t.Fatalf("NewPlan: %v", err)
	}
	return fresh
}

// requirePlanEquivalence sweeps both plans over the same points and
// demands bit-identical results, including a cache-disabled point that
// recomputes every DP from scratch.
func requirePlanEquivalence(t *testing.T, label string, derived *Plan, points []SweepPoint) {
	t.Helper()
	fresh := freshEquivalent(t, derived)
	ctx := context.Background()
	got, err := EvaluateSweep(ctx, derived, points)
	if err != nil {
		t.Fatalf("%s: derived sweep: %v", label, err)
	}
	want, err := EvaluateSweep(ctx, fresh, points)
	if err != nil {
		t.Fatalf("%s: fresh sweep: %v", label, err)
	}
	for i := range got {
		sameResult(t, label, got[i], want[i])
	}
}

func deltaSweepPoints(seed uint64) []SweepPoint {
	pts := sweepPoints(seed)
	// A cache-disabled point recomputes P^D and every resolution score
	// from scratch; if the memoized P^D ever diverged from the true value
	// it would disagree with the cached points' PD.
	pts = append(pts, SweepPoint{Mechanism: pts[0].Mechanism, Seed: pts[0].Seed, DisableResolutionCache: true})
	return pts
}

func TestApplyDeltaCompetencyChain(t *testing.T) {
	s := rng.New(90)
	in := randomInstance(t, 60, 0.3, 0.9, s)
	base, err := NewPlan(in, Options{Replications: 8, Workers: 2, Seed: 7})
	if err != nil {
		t.Fatalf("NewPlan: %v", err)
	}
	plan := base
	for step := 0; step < 8; step++ {
		v := int(s.IntN(plan.Instance().N()))
		plan, err = plan.ApplyDelta(Delta{Kind: DeltaCompetency, Voter: v, P: 0.3 + 0.6*s.Float64()})
		if err != nil {
			t.Fatalf("step %d: ApplyDelta: %v", step, err)
		}
		requirePlanEquivalence(t, "competency chain", plan, deltaSweepPoints(uint64(step)))
	}
	// The whole chain shares the base plan's score cache.
	if plan.scores != base.scores {
		t.Fatal("derived plan does not share the base plan's score cache")
	}
}

// TestApplyDeltaChainWithoutReads drives a delta chain that never reads
// P^D between steps: the first read, at the end of the chain, must still
// be bit-identical to a from-scratch plan.
func TestApplyDeltaChainWithoutReads(t *testing.T) {
	s := rng.New(93)
	in := randomInstance(t, 60, 0.3, 0.9, s)
	plan, err := NewPlan(in, Options{Replications: 8, Workers: 2, Seed: 7})
	if err != nil {
		t.Fatalf("NewPlan: %v", err)
	}
	for step := 0; step < 8; step++ {
		v := int(s.IntN(plan.Instance().N()))
		plan, err = plan.ApplyDelta(Delta{Kind: DeltaCompetency, Voter: v, P: 0.3 + 0.6*s.Float64()})
		if err != nil {
			t.Fatalf("step %d: ApplyDelta: %v", step, err)
		}
	}
	requirePlanEquivalence(t, "unread chain", plan, deltaSweepPoints(9))
}

func TestApplyDeltaVotersAndEdges(t *testing.T) {
	s := rng.New(91)
	// Explicit graph so edge deltas are exercised too.
	g, err := graph.NewGraphFromEdges(20, [][2]int{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		for j := i + 1; j < 20; j++ {
			if s.Float64() < 0.3 {
				if err := g.AddEdge(i, j); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	p := make([]float64, 20)
	for i := range p {
		p[i] = 0.3 + 0.6*s.Float64()
	}
	plan, err := NewPlan(mustInstance(t, g, p), Options{Replications: 8, Workers: 2, Seed: 7})
	if err != nil {
		t.Fatalf("NewPlan: %v", err)
	}
	steps := []Delta{
		{Kind: DeltaAddVoter, P: 0.7, Edges: []int{0, 3, 5}},
		{Kind: DeltaAddEdge, Voter: 1, Target: 2},
		{Kind: DeltaRemoveVoter, Voter: 4},
		{Kind: DeltaCompetency, Voter: 0, P: 0.55},
	}
	// Find an existing edge to remove.
	top := plan.Instance().Topology().(*graph.Graph)
	if es := top.Edges(); len(es) > 0 {
		steps = append(steps, Delta{Kind: DeltaRemoveEdge, Voter: es[0][0], Target: es[0][1]})
	}
	for i, d := range steps {
		plan, err = plan.ApplyDelta(d)
		if err != nil {
			t.Fatalf("step %d (%s): %v", i, d.Kind, err)
		}
		requirePlanEquivalence(t, d.Kind.String(), plan, deltaSweepPoints(uint64(100+i)))
	}
}

func TestApplyDeltaErrors(t *testing.T) {
	s := rng.New(92)
	in := randomInstance(t, 10, 0.3, 0.9, s)
	plan, err := NewPlan(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []Delta{
		{Kind: DeltaRepoint, Voter: 0, Target: 1},      // plan has no profile
		{Kind: DeltaCompetency, Voter: 99, P: 0.5},     // out of range
		{Kind: DeltaCompetency, Voter: 0, P: 1.5},      // invalid p
		{Kind: DeltaAddVoter, P: 0.5, Edges: []int{1}}, // edges on complete topology
		{Kind: DeltaAddEdge, Voter: 0, Target: 1},      // complete topology
		{Kind: DeltaRemoveVoter, Voter: -1},            // out of range
		{Kind: DeltaKind(0)},                           // unknown kind
	}
	for i, d := range cases {
		if _, err := plan.ApplyDelta(d); err == nil {
			t.Fatalf("case %d (%s): expected error", i, d.Kind)
		}
	}
}

// randomAcyclicDelegation delegates each voter, with probability frac, to
// a random higher-id neighbor — higher id means no cycles by construction.
func randomAcyclicDelegation(t *testing.T, in *core.Instance, frac float64, s *rng.Stream) *core.DelegationGraph {
	t.Helper()
	d := core.NewDelegationGraph(in.N())
	for i := 0; i < in.N()-1; i++ {
		if s.Float64() < frac {
			j := i + 1 + int(s.IntN(in.N()-i-1))
			if in.Topology().HasEdge(i, j) {
				if err := d.SetDelegate(i, j); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return d
}

// requireScenarioMatchesScratch scores the scenario and compares against
// the transient exact path on the same instance and profile.
func requireScenarioMatchesScratch(t *testing.T, label string, sc *Scenario) {
	t.Helper()
	got, err := sc.Score()
	if err != nil {
		t.Fatalf("%s: Score: %v", label, err)
	}
	res, err := sc.Delegation().Resolve()
	if err != nil {
		t.Fatalf("%s: Resolve: %v", label, err)
	}
	want, err := ResolutionProbabilityExact(sc.Plan().Instance(), res)
	if err != nil {
		t.Fatalf("%s: ResolutionProbabilityExact: %v", label, err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: Score %v != from-scratch %v", label, got, want)
	}
}

func TestScenarioRepointSequence(t *testing.T) {
	s := rng.New(93)
	in := randomInstance(t, 120, 0.3, 0.9, s)
	plan, err := NewPlan(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := randomAcyclicDelegation(t, in, 0.5, s)
	sc, err := NewScenario(plan, d)
	if err != nil {
		t.Fatalf("NewScenario: %v", err)
	}
	requireScenarioMatchesScratch(t, "initial", sc)
	for step := 0; step < 40; step++ {
		i := int(s.IntN(in.N() - 1))
		var target int
		if s.Float64() < 0.3 {
			target = core.NoDelegate
		} else {
			target = i + 1 + int(s.IntN(in.N()-i-1))
		}
		if err := sc.ApplyDelta(Delta{Kind: DeltaRepoint, Voter: i, Target: target}); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		requireScenarioMatchesScratch(t, "repoint", sc)
	}
	// PD through the scenario must match the unmemoized exact evaluator.
	got, err := sc.PD()
	if err != nil {
		t.Fatalf("PD: %v", err)
	}
	want, err := directProbabilityExactFresh(context.Background(), in, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("scenario PD %v != from-scratch %v", got, want)
	}
}

// TestScenarioPDAboveExactDirectMaxN: a scenario's P^D is exact at every
// size, not just where Plan computes P^D exactly. Above ExactDirectMaxN it
// must still be bit-identical to the unmemoized exact kernel on a fresh
// instance, also after a competency delta.
func TestScenarioPDAboveExactDirectMaxN(t *testing.T) {
	s := rng.New(rng.Derive(97, "scenario-pd"))
	for _, n := range []int{ExactDirectMaxN + 1, 9001, 20000} {
		in := randomInstance(t, n, 0.3, 0.9, s)
		plan, err := NewPlan(in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sc, err := NewScenario(plan, core.NewDelegationGraph(n))
		if err != nil {
			t.Fatal(err)
		}
		for step, delta := range []Delta{{}, {Kind: DeltaCompetency, Voter: n / 3, P: 0.77}} {
			if step > 0 {
				if err := sc.ApplyDelta(delta); err != nil {
					t.Fatal(err)
				}
			}
			got, err := sc.PD()
			if err != nil {
				t.Fatalf("n=%d step %d: PD: %v", n, step, err)
			}
			cur := sc.Plan().Instance()
			fresh := mustInstance(t, cur.Topology(), cur.Competencies())
			want, err := directProbabilityExactFresh(context.Background(), fresh, 1)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d step %d: scenario PD %v != from-scratch %v", n, step, got, want)
			}
		}
	}
}

func TestScenarioMixedDeltas(t *testing.T) {
	s := rng.New(94)
	in := randomInstance(t, 40, 0.3, 0.9, s)
	plan, err := NewPlan(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := NewScenario(plan, randomAcyclicDelegation(t, in, 0.6, s))
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 30; step++ {
		n := sc.Plan().Instance().N()
		var d Delta
		switch s.IntN(4) {
		case 0:
			d = Delta{Kind: DeltaRepoint, Voter: int(s.IntN(n)), Target: core.NoDelegate}
		case 1:
			d = Delta{Kind: DeltaCompetency, Voter: int(s.IntN(n)), P: 0.3 + 0.6*s.Float64()}
		case 2:
			d = Delta{Kind: DeltaAddVoter, P: 0.3 + 0.6*s.Float64(), Target: core.NoDelegate}
		default:
			if n <= 3 {
				continue
			}
			d = Delta{Kind: DeltaRemoveVoter, Voter: int(s.IntN(n))}
		}
		if err := sc.ApplyDelta(d); err != nil {
			t.Fatalf("step %d (%s): %v", step, d.Kind, err)
		}
		requireScenarioMatchesScratch(t, d.Kind.String(), sc)
	}
	// The plan chain advanced through instance deltas; it must still be
	// sweep-equivalent to a fresh plan.
	requirePlanEquivalence(t, "scenario plan chain", sc.Plan(), deltaSweepPoints(5))
}

func TestScenarioFailedDeltaLeavesStateIntact(t *testing.T) {
	s := rng.New(95)
	in := randomInstance(t, 12, 0.3, 0.9, s)
	plan, err := NewPlan(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := NewScenario(plan, randomAcyclicDelegation(t, in, 0.5, s))
	if err != nil {
		t.Fatal(err)
	}
	before, err := sc.Score()
	if err != nil {
		t.Fatal(err)
	}
	beforeDelegate := append([]int(nil), sc.Delegation().Delegate...)
	// Second delta invalid: the whole batch must be rejected atomically.
	err = sc.ApplyDelta(
		Delta{Kind: DeltaRepoint, Voter: 0, Target: 1},
		Delta{Kind: DeltaCompetency, Voter: 0, P: 2},
	)
	if err == nil {
		t.Fatal("invalid batch accepted")
	}
	after, err := sc.Score()
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(before) != math.Float64bits(after) {
		t.Fatalf("failed batch changed the score: %v -> %v", before, after)
	}
	for i, want := range beforeDelegate {
		if sc.Delegation().Delegate[i] != want {
			t.Fatalf("failed batch left a partial repoint behind at voter %d", i)
		}
	}
}

// FuzzDeltaEquivalence drives a random instance through a random delta
// sequence and demands, at every step, bit-identity between the delta path
// (Scenario + plan chain, memoized kernels) and unmemoized from-scratch
// evaluation of the mutated state. This is the correctness gate for delta
// application, wired into make-check's fuzz-smoke stage.
func FuzzDeltaEquivalence(f *testing.F) {
	f.Add([]byte{7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{12, 0, 200, 100, 3, 50, 1, 9, 9, 2, 2, 2, 0, 255, 63, 17})
	f.Add([]byte{20, 255, 254, 253, 0, 1, 2, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			t.Skip()
		}
		n := 3 + int(data[0]%16)
		data = data[1:]
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		// Competencies on a coarse byte grid: every value is exact in
		// float64 and never -0, and collisions exercise the tie-break
		// paths.
		pOf := func(b byte) float64 { return float64(b) / 255 }
		p := make([]float64, n)
		for i := range p {
			p[i] = pOf(next())
		}
		in, err := core.NewInstance(graph.NewComplete(n), p)
		if err != nil {
			t.Fatalf("NewInstance: %v", err)
		}
		plan, err := NewPlan(in, Options{})
		if err != nil {
			t.Fatalf("NewPlan: %v", err)
		}
		d := core.NewDelegationGraph(n)
		sc, err := NewScenario(plan, d)
		if err != nil {
			t.Fatalf("NewScenario: %v", err)
		}
		for len(data) > 0 {
			nCur := sc.Plan().Instance().N()
			op := next()
			var delta Delta
			switch op % 4 {
			case 0: // competency
				delta = Delta{Kind: DeltaCompetency, Voter: int(next()) % nCur, P: pOf(next())}
			case 1: // repoint: target by id order, higher id only (acyclic)
				v := int(next()) % nCur
				tgt := int(next()) % nCur
				if tgt <= v {
					delta = Delta{Kind: DeltaRepoint, Voter: v, Target: core.NoDelegate}
				} else {
					delta = Delta{Kind: DeltaRepoint, Voter: v, Target: tgt}
				}
			case 2: // add voter
				if nCur >= 24 {
					continue
				}
				delta = Delta{Kind: DeltaAddVoter, P: pOf(next()), Target: core.NoDelegate}
			default: // remove voter
				if nCur <= 3 {
					continue
				}
				delta = Delta{Kind: DeltaRemoveVoter, Voter: int(next()) % nCur}
			}
			if err := sc.ApplyDelta(delta); err != nil {
				t.Fatalf("ApplyDelta(%s): %v", delta.Kind, err)
			}
			// P^M: the scenario's cached score vs the uncached exact path.
			got, err := sc.Score()
			if err != nil {
				t.Fatalf("Score: %v", err)
			}
			res, err := sc.Delegation().Resolve()
			if err != nil {
				t.Fatalf("Resolve: %v", err)
			}
			want, err := ResolutionProbabilityExact(sc.Plan().Instance(), res)
			if err != nil {
				t.Fatalf("ResolutionProbabilityExact: %v", err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: scenario P^M %v (bits %x) != from-scratch %v (bits %x)",
					delta.Kind, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			// P^D: the scenario's memoized value vs an unmemoized kernel
			// run on a fresh instance.
			inCur := sc.Plan().Instance()
			fresh, err := core.NewInstance(inCur.Topology(), inCur.Competencies())
			if err != nil {
				t.Fatalf("fresh NewInstance: %v", err)
			}
			gotPD, err := sc.PD()
			if err != nil {
				t.Fatalf("PD: %v", err)
			}
			wantPD, err := directProbabilityExactFresh(context.Background(), fresh, 1)
			if err != nil {
				t.Fatalf("directProbabilityExactFresh: %v", err)
			}
			if math.Float64bits(gotPD) != math.Float64bits(wantPD) {
				t.Fatalf("%s: scenario P^D %v != from-scratch %v", delta.Kind, gotPD, wantPD)
			}
		}
	})
}

// TestPreviewDeltasMatchesScenario pins the serving-layer dry run to the
// evaluation path: PreviewDeltas must land on exactly the instance and
// profile a Scenario reaches through the same deltas, without mutating
// its inputs — it is what lets the daemon reject bad delta lists (and
// resolve post-delta cycles) before paying for admission.
func TestPreviewDeltasMatchesScenario(t *testing.T) {
	s := rng.New(96)
	in := randomInstance(t, 20, 0.3, 0.9, s)
	d0 := randomAcyclicDelegation(t, in, 0.5, s)
	beforeP := append([]float64(nil), in.Competencies()...)
	beforeD := append([]int(nil), d0.Delegate...)
	deltas := []Delta{
		{Kind: DeltaRepoint, Voter: 3, Target: core.NoDelegate},
		{Kind: DeltaCompetency, Voter: 5, P: 0.77},
		{Kind: DeltaAddVoter, P: 0.6, Target: 2},
		{Kind: DeltaRemoveVoter, Voter: 1},
	}
	fin, fd, err := PreviewDeltas(in, d0, deltas...)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := NewScenario(plan, d0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.ApplyDelta(deltas...); err != nil {
		t.Fatal(err)
	}
	want := sc.Plan().Instance()
	if fin.N() != want.N() {
		t.Fatalf("preview n = %d, scenario n = %d", fin.N(), want.N())
	}
	for v, p := range fin.Competencies() {
		if math.Float64bits(p) != math.Float64bits(want.Competency(v)) {
			t.Fatalf("voter %d: preview p %v, scenario p %v", v, p, want.Competency(v))
		}
	}
	for v, tgt := range fd.Delegate {
		if tgt != sc.Delegation().Delegate[v] {
			t.Fatalf("voter %d: preview target %d, scenario target %d", v, tgt, sc.Delegation().Delegate[v])
		}
	}
	// The inputs must be untouched, on success and on failure alike.
	if _, _, err := PreviewDeltas(in, d0, Delta{Kind: DeltaRemoveVoter, Voter: 99}); err == nil {
		t.Fatal("out-of-range remove-voter previewed cleanly")
	}
	if _, _, err := PreviewDeltas(in, d0, Delta{Kind: DeltaRepoint, Voter: 0, Target: 99}); err == nil {
		t.Fatal("out-of-range repoint previewed cleanly")
	}
	for v, p := range in.Competencies() {
		if math.Float64bits(p) != math.Float64bits(beforeP[v]) {
			t.Fatalf("PreviewDeltas mutated the instance at voter %d", v)
		}
	}
	for v, tgt := range d0.Delegate {
		if tgt != beforeD[v] {
			t.Fatalf("PreviewDeltas mutated the profile at voter %d", v)
		}
	}
}
