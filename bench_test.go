// Package liquid holds the repository-level benchmark harness: one
// benchmark per reproduced table/figure (the F/L/T/X/A experiment ids of
// DESIGN.md), plus micro-benchmarks for the hot primitives underneath them.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package liquid

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"liquid/internal/core"
	"liquid/internal/election"
	"liquid/internal/engine"
	"liquid/internal/experiment"
	"liquid/internal/graph"
	"liquid/internal/history"
	"liquid/internal/localsim"
	"liquid/internal/mechanism"
	"liquid/internal/prob"
	"liquid/internal/recycle"
	"liquid/internal/rng"
	"liquid/internal/scale"
)

// benchExperiment runs one full experiment per iteration at reduced scale.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		out, err := experiment.Run(context.Background(), id, experiment.Config{Seed: uint64(i) + 1, Scale: 0.1})
		if err != nil {
			b.Fatal(err)
		}
		if len(out.Tables) == 0 {
			b.Fatal("no tables")
		}
	}
}

// One benchmark per figure/lemma/theorem/extension/ablation artifact.

func BenchmarkF1Star(b *testing.B)                 { benchExperiment(b, "F1") }
func BenchmarkF2Example(b *testing.B)              { benchExperiment(b, "F2") }
func BenchmarkL1PrefixDeviation(b *testing.B)      { benchExperiment(b, "L1") }
func BenchmarkL2RecycleConcentration(b *testing.B) { benchExperiment(b, "L2") }
func BenchmarkL3AntiConcentration(b *testing.B)    { benchExperiment(b, "L3") }
func BenchmarkL4CLT(b *testing.B)                  { benchExperiment(b, "L4") }
func BenchmarkL5MaxWeight(b *testing.B)            { benchExperiment(b, "L5") }
func BenchmarkL7Expectation(b *testing.B)          { benchExperiment(b, "L7") }
func BenchmarkV1Variance(b *testing.B)             { benchExperiment(b, "V1") }
func BenchmarkT2Complete(b *testing.B)             { benchExperiment(b, "T2") }
func BenchmarkT3DRegular(b *testing.B)             { benchExperiment(b, "T3") }
func BenchmarkT4BoundedDegree(b *testing.B)        { benchExperiment(b, "T4") }
func BenchmarkT5MinDegree(b *testing.B)            { benchExperiment(b, "T5") }
func BenchmarkX1Abstention(b *testing.B)           { benchExperiment(b, "X1") }
func BenchmarkX2WeightedMajority(b *testing.B)     { benchExperiment(b, "X2") }
func BenchmarkX3RealWorldGraphs(b *testing.B)      { benchExperiment(b, "X3") }
func BenchmarkX4ProbabilisticComps(b *testing.B)   { benchExperiment(b, "X4") }
func BenchmarkX5SparseTopologies(b *testing.B)     { benchExperiment(b, "X5") }
func BenchmarkX6PowerConcentration(b *testing.B)   { benchExperiment(b, "X6") }
func BenchmarkX7TrackRecords(b *testing.B)         { benchExperiment(b, "X7") }
func BenchmarkX8Equilibria(b *testing.B)           { benchExperiment(b, "X8") }
func BenchmarkX9Adaptive(b *testing.B)             { benchExperiment(b, "X9") }
func BenchmarkX10Homophily(b *testing.B)           { benchExperiment(b, "X10") }
func BenchmarkX11ReputationFarming(b *testing.B)   { benchExperiment(b, "X11") }
func BenchmarkX12GossipSpectral(b *testing.B)      { benchExperiment(b, "X12") }
func BenchmarkA1ThresholdSweep(b *testing.B)       { benchExperiment(b, "A1") }
func BenchmarkA2AlphaSweep(b *testing.B)           { benchExperiment(b, "A2") }
func BenchmarkA3EngineComparison(b *testing.B)     { benchExperiment(b, "A3") }
func BenchmarkA4Crossover(b *testing.B)            { benchExperiment(b, "A4") }
func BenchmarkA5TieRules(b *testing.B)             { benchExperiment(b, "A5") }
func BenchmarkA6PairedDuels(b *testing.B)          { benchExperiment(b, "A6") }
func BenchmarkR1AvailabilityFaults(b *testing.B)   { benchExperiment(b, "R1") }
func BenchmarkR2ProtocolFaults(b *testing.B)       { benchExperiment(b, "R2") }

// benchSuite runs a replication-heavy slice of the registry through the
// engine at the given worker count. The subset leans on Monte-Carlo
// experiments so the parallel speedup reflects real election workloads.
func benchSuite(b *testing.B, workers int) {
	b.Helper()
	var defs []experiment.Definition
	for _, id := range []string{"F2", "L1", "L2", "L5", "T2", "T3", "X1", "X4"} {
		def, err := experiment.Lookup(id)
		if err != nil {
			b.Fatal(err)
		}
		defs = append(defs, def)
	}
	cfg := experiment.Config{Seed: 1, Scale: 0.1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := engine.New(engine.Options{Workers: workers}).Run(context.Background(), defs, cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, res := range results {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	}
}

// BenchmarkRunAllSequential and BenchmarkRunAllParallel compare one worker
// against a pool of four on the same registry subset; the outcomes are
// identical, only the wall clock differs.
func BenchmarkRunAllSequential(b *testing.B) { benchSuite(b, 1) }
func BenchmarkRunAllParallel(b *testing.B)   { benchSuite(b, 4) }

// --- micro-benchmarks for the primitives the experiments lean on ---

func benchInstance(b *testing.B, n int) *core.Instance {
	b.Helper()
	s := rng.New(99)
	p := make([]float64, n)
	for i := range p {
		p[i] = 0.3 + 0.4*s.Float64()
	}
	in, err := core.NewInstance(graph.NewComplete(n), p)
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// BenchmarkPoissonBinomialPMF measures the exact P^D kernel (n=2000)
// through the workspace API: the competencies as unit voters in workspace
// memory (no copy), and the majority probability from their PMF.
// BenchmarkPoissonBinomialPMFNaive is the same workload on the plain
// O(n^2) DP into a fresh slice — the pre-overhaul engine, kept for
// trajectory comparison (see BENCH_*.json).
func BenchmarkPoissonBinomialPMF(b *testing.B) {
	in := benchInstance(b, 2000)
	ps := in.Competencies()
	ws := prob.NewWorkspace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := ws.PMF(ws.UnitVoters(ps))
		if err != nil {
			b.Fatal(err)
		}
		if prob.MajorityMass(f) < 0 {
			b.Fatal("impossible")
		}
	}
}

func BenchmarkPoissonBinomialPMFNaive(b *testing.B) {
	in := benchInstance(b, 2000)
	voters := prob.NewWorkspace().UnitVoters(in.Competencies())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := prob.PMFNaive(voters)
		if err != nil {
			b.Fatal(err)
		}
		if prob.MajorityMass(f) < 0 {
			b.Fatal("impossible")
		}
	}
}

// benchVoters is the weighted-majority workload: n sinks with weights in
// [1, 20], the regime the raised exact-evaluation limits target.
func benchVoters(n int) []prob.WeightedVoter {
	voters := make([]prob.WeightedVoter, n)
	s := rng.New(7)
	for i := range voters {
		voters[i] = prob.WeightedVoter{Weight: 1 + s.IntN(20), P: s.Float64()}
	}
	return voters
}

func BenchmarkWeightedMajorityDP(b *testing.B) {
	voters := benchVoters(2000)
	ws := prob.NewWorkspace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := ws.PMF(voters)
		if err != nil {
			b.Fatal(err)
		}
		if prob.MajorityMass(f) < 0 {
			b.Fatal("impossible")
		}
	}
}

func BenchmarkWeightedMajorityDPNaive(b *testing.B) {
	voters := benchVoters(2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := prob.PMFNaive(voters)
		if err != nil {
			b.Fatal(err)
		}
		if prob.MajorityMass(f) < 0 {
			b.Fatal("impossible")
		}
	}
}

// BenchmarkResolutionScoreCached measures the memoized exact-scoring path:
// one realized resolution scored repeatedly through a shared ScoreCache,
// the steady state of replication loops.
func BenchmarkResolutionScoreCached(b *testing.B) {
	in := benchInstance(b, 500)
	d, err := (mechanism.ApprovalThreshold{Alpha: 0.05}).Apply(in, rng.New(21))
	if err != nil {
		b.Fatal(err)
	}
	res, err := d.Resolve()
	if err != nil {
		b.Fatal(err)
	}
	ws := prob.NewWorkspace()
	cache := election.NewScoreCache()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := election.ResolutionProbabilityExactCached(in, res, ws, cache); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMechanismApplyComplete(b *testing.B) {
	in := benchInstance(b, 10000)
	mech := mechanism.ApprovalThreshold{Alpha: 0.05}
	s := rng.New(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mech.Apply(in, s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDelegationResolve(b *testing.B) {
	in := benchInstance(b, 10000)
	d, err := (mechanism.ApprovalThreshold{Alpha: 0.05}).Apply(in, rng.New(5))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Resolve(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluateMechanismSmall(b *testing.B) {
	in := benchInstance(b, 500)
	mech := mechanism.ApprovalThreshold{Alpha: 0.05}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := election.EvaluateMechanism(context.Background(), in, mech, election.Options{
			Replications: 8, Seed: uint64(i) + 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateSweepSmall measures the batched pipeline on the sweep
// shape the experiment engine actually runs: several alpha points sharing
// one Plan (score cache, P^D memo, approval memos). Compare against
// BenchmarkEvaluateMechanismSmall times the point count to see what the
// sharing buys.
func BenchmarkEvaluateSweepSmall(b *testing.B) {
	in := benchInstance(b, 500)
	alphas := []float64{0.02, 0.05, 0.1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := election.NewPlan(in, election.Options{Replications: 8})
		if err != nil {
			b.Fatal(err)
		}
		plan.PrewarmApproval(alphas...)
		points := make([]election.SweepPoint, len(alphas))
		for j, a := range alphas {
			points[j] = election.SweepPoint{
				Mechanism: mechanism.ApprovalThreshold{Alpha: a},
				Seed:      uint64(i)*uint64(len(alphas)) + uint64(j) + 1,
			}
		}
		if _, err := election.EvaluateSweep(context.Background(), plan, points); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiDelegationProbability measures the multi-delegate Monte
// Carlo kernel on X2's full-scale shape: a complete graph on 501 voters
// with competencies uniform in [0.30, 0.49], one realized MultiDelegate
// at alpha = 0.05, scored from 4000 vote samples. K = 1 is all copy rows;
// K = 9 exercises the bit-sliced majority counters.
func BenchmarkMultiDelegationProbability(b *testing.B) {
	const n = 501
	s := rng.New(17)
	p := make([]float64, n)
	for i := range p {
		p[i] = 0.30 + 0.19*s.Float64()
	}
	in, err := core.NewInstance(graph.NewComplete(n), p)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{1, 9} {
		md, err := mechanism.MultiDelegate{Alpha: 0.05, K: k}.ApplyMulti(in, s.Derive(uint64(k)))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			votes := rng.New(19)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := election.MultiDelegationProbability(context.Background(), in, md, 4000, votes); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTrackRecordSimulate measures history.Simulate on X7's
// full-scale shape: a complete graph on 1001 voters with competencies
// uniform in [0.30, 0.49], and a history of 64 issues. ns/draw divides the
// time by the record's 64 × 1001 Bernoulli draws.
func BenchmarkTrackRecordSimulate(b *testing.B) {
	const n, t = 1001, 64
	s := rng.New(23)
	p := make([]float64, n)
	for i := range p {
		p[i] = 0.30 + 0.19*s.Float64()
	}
	in, err := core.NewInstance(graph.NewComplete(n), p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := history.Simulate(in, t, s); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n*t), "ns/draw")
}

// BenchmarkResolutionProbabilityMC measures the Monte-Carlo P^M on A3's
// full-scale shape: a complete graph on 801 voters with competencies
// uniform in [0.30, 0.70), one approval-threshold realization at alpha =
// 0.03, scored from 4000 vote samples. ns/draw divides the time by one
// draw per sink per sample.
func BenchmarkResolutionProbabilityMC(b *testing.B) {
	const samples = 4000
	in := benchInstance(b, 801)
	d, err := (mechanism.ApprovalThreshold{Alpha: 0.03}).Apply(in, rng.New(31))
	if err != nil {
		b.Fatal(err)
	}
	res, err := d.Resolve()
	if err != nil {
		b.Fatal(err)
	}
	votes := rng.New(37)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := election.ResolutionProbabilityMC(context.Background(), in, res, samples, votes); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*samples*len(res.Sinks)), "ns/draw")
}

// BenchmarkSampleWithoutReplacement measures k distinct draws from
// [0, 2000): the rejection path at every k here, T3's neighbour sample at
// k = 16, and k on both sides of the path's scan cutoff.
func BenchmarkSampleWithoutReplacement(b *testing.B) {
	const n = 2000
	for _, k := range []int{4, 16, 32, 64, 128} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			s := rng.New(41)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(s.SampleWithoutReplacement(n, k)) != k {
					b.Fatal("short sample")
				}
			}
		})
	}
}

// --- delta application (the BENCH_004 trajectory) ---

// benchDeltaInstance is benchInstance with a designated probe voter: voter
// 2 carries the electorate's highest competency, so a small competency
// drift keeps its rank in the canonical sorted sequence.
func benchDeltaInstance(b *testing.B, n int) *core.Instance {
	b.Helper()
	s := rng.New(99)
	p := make([]float64, n)
	for i := range p {
		p[i] = 0.3 + 0.4*s.Float64()
	}
	p[2] = 0.95
	in, err := core.NewInstance(graph.NewComplete(n), p)
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// benchDeltaProfile is the base delegation profile the delta benchmarks
// probe against: every third voter delegates upward, the shape liquidload
// drives at the daemon's what-if endpoint. Voter 2 stays a weight-1 sink.
func benchDeltaProfile(n int) *core.DelegationGraph {
	d := core.NewDelegationGraph(n)
	for v := 0; v+1 < n; v += 3 {
		if err := d.SetDelegate(v, v+1); err != nil {
			panic(err)
		}
	}
	return d
}

// deltaDriftP returns the i-th probe competency: a strictly decreasing
// drift below 0.95 that never repeats, so neither side of the comparison
// can hit a content-addressed cache, and never crosses another voter's
// competency, so the probe's rank is stable.
func deltaDriftP(i int) float64 { return 0.95 - float64(i+1)*1e-9 }

// benchDeltaSingleVoter measures steady-state single-delta re-evaluation:
// one scenario, each iteration applies a fresh competency delta to the
// probe voter and re-scores it through the memoized exact kernel, on a
// multiset the score cache has never seen.
func benchDeltaSingleVoter(b *testing.B, n int) {
	b.Helper()
	in := benchDeltaInstance(b, n)
	plan, err := election.NewPlan(in, election.Options{Replications: 1, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	sc, err := election.NewScenario(plan, benchDeltaProfile(n))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sc.Score(); err != nil { // warm the workspace
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sc.ApplyDelta(election.Delta{Kind: election.DeltaCompetency, Voter: 2, P: deltaDriftP(i)}); err != nil {
			b.Fatal(err)
		}
		if s, err := sc.Score(); err != nil || s <= 0 {
			b.Fatalf("score %v: %v", s, err)
		}
	}
}

// benchDeltaScratchSweep is the from-scratch cost the delta path replaces:
// after the same single competency delta, re-run the full staged pipeline —
// fresh plan, fresh caches, EvaluateSweep over the usual three-alpha sweep
// — on the mutated instance. Every iteration sees a never-before-seen
// instance, exactly as a naive re-evaluation would.
func benchDeltaScratchSweep(b *testing.B, n int) {
	b.Helper()
	in := benchDeltaInstance(b, n)
	alphas := []float64{0.02, 0.05, 0.1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in2, err := in.WithCompetency(2, deltaDriftP(i))
		if err != nil {
			b.Fatal(err)
		}
		plan, err := election.NewPlan(in2, election.Options{Replications: 8})
		if err != nil {
			b.Fatal(err)
		}
		plan.PrewarmApproval(alphas...)
		points := make([]election.SweepPoint, len(alphas))
		for j, a := range alphas {
			points[j] = election.SweepPoint{
				Mechanism: mechanism.ApprovalThreshold{Alpha: a},
				Seed:      uint64(i)*uint64(len(alphas)) + uint64(j) + 1,
			}
		}
		if _, err := election.EvaluateSweep(context.Background(), plan, points); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDeltaChurn measures sustained repoint churn, the dynamics/history
// workload: the probing voter rotates across the electorate and every
// iteration re-points a different voter, so consecutive profiles move
// sinks between weight runs of the sorted multiset.
func benchDeltaChurn(b *testing.B, n int) {
	b.Helper()
	in := benchDeltaInstance(b, n)
	plan, err := election.NewPlan(in, election.Options{Replications: 1, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	sc, err := election.NewScenario(plan, benchDeltaProfile(n))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sc.Score(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := 3 * (i % (n / 3))
		target := core.NoDelegate // base profile has v -> v+1
		if (i/(n/3))%2 == 1 {     // alternate direction per sweep over the electorate
			target = v + 1
		}
		if err := sc.ApplyDelta(election.Delta{Kind: election.DeltaRepoint, Voter: v, Target: target}); err != nil {
			b.Fatal(err)
		}
		if s, err := sc.Score(); err != nil || s <= 0 {
			b.Fatalf("score %v: %v", s, err)
		}
	}
}

func BenchmarkDeltaSingleVoter2000(b *testing.B)   { benchDeltaSingleVoter(b, 2000) }
func BenchmarkDeltaSingleVoter20000(b *testing.B)  { benchDeltaSingleVoter(b, 20000) }
func BenchmarkDeltaScratchSweep2000(b *testing.B)  { benchDeltaScratchSweep(b, 2000) }
func BenchmarkDeltaScratchSweep20000(b *testing.B) { benchDeltaScratchSweep(b, 20000) }
func BenchmarkDeltaChurn2000(b *testing.B)         { benchDeltaChurn(b, 2000) }
func BenchmarkDeltaChurn20000(b *testing.B)        { benchDeltaChurn(b, 20000) }

// benchLadderMajority measures the approximation ladder end to end on a
// streamed n-voter electorate with a 1e-3 error budget: at these sizes the
// normal tier certifies, so the cost is one O(n) moments pass over derived
// blocks — the scale tier's headline number for BENCH_005 and beyond. The
// instance is never folded, so the pass always runs; BenchmarkCertifyQuery
// measures the fold-then-ladder query that reuses the fold's moments.
func benchLadderMajority(b *testing.B, n int) {
	b.Helper()
	s, err := scale.New(scale.Spec{N: n, Seed: 2026, Low: 0.3, High: 0.6})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ci, err := prob.LadderMajority(context.Background(), s, prob.LadderOptions{ErrorBudget: 1e-3})
		if err != nil {
			b.Fatal(err)
		}
		if ci.HalfWidth > 1e-3 {
			b.Fatalf("half-width %v over budget", ci.HalfWidth)
		}
	}
}

func BenchmarkLadderMajority100000(b *testing.B)  { benchLadderMajority(b, 100_000) }
func BenchmarkLadderMajority1000000(b *testing.B) { benchLadderMajority(b, 1_000_000) }

// benchScaleEvaluateMajority measures the full streamed mechanism
// evaluation: chunk-local delegation resolution, the certified fold in
// generation order, and the ladder's moment blocks summed on the way, at a
// 4-worker budget. The moments are stored on the first iteration's
// instance, so later iterations fold without them.
func benchScaleEvaluateMajority(b *testing.B, n int) {
	b.Helper()
	s, err := scale.New(scale.Spec{N: n, Seed: 2026, Low: 0.3, High: 0.6, DelegateFrac: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := scale.EvaluateMajority(context.Background(), s, 4)
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.WeightSum != int64(n) {
			b.Fatal("weight not conserved")
		}
	}
}

func BenchmarkScaleEvaluateMajority100000(b *testing.B)  { benchScaleEvaluateMajority(b, 100_000) }
func BenchmarkScaleEvaluateMajority1000000(b *testing.B) { benchScaleEvaluateMajority(b, 1_000_000) }

// benchCertifyQuery measures one certified million-voter query as
// certify_1e6 runs it: each iteration builds a fresh streamed instance,
// with DelegateFrac cycling 0 / 0.5 / 0.95, folds it (scale.EvaluateMajority)
// and certifies P^D on the ladder at a 1e-3 budget, both on 2 workers. The
// ladder reads the moments the fold summed, which a never-folded instance
// (BenchmarkLadderMajority) cannot show.
func benchCertifyQuery(b *testing.B, n int) {
	b.Helper()
	ctx := context.Background()
	fracs := []float64{0, 0.5, 0.95}
	for i := 0; i < b.N; i++ {
		s, err := scale.New(scale.Spec{N: n, Seed: rng.Derive(2026, "bench", "certify", fmt.Sprint(i)), DelegateFrac: fracs[i%len(fracs)]})
		if err != nil {
			b.Fatal(err)
		}
		res, err := scale.EvaluateMajority(ctx, s, 2)
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.WeightSum != int64(n) {
			b.Fatal("weight not conserved")
		}
		if _, err := prob.LadderMajority(ctx, s, prob.LadderOptions{ErrorBudget: 1e-3, Workers: 2}); err != nil && !errors.Is(err, prob.ErrBudgetInfeasible) {
			b.Fatal(err)
		}
	}
}

func BenchmarkCertifyQuery100000(b *testing.B)  { benchCertifyQuery(b, 100_000) }
func BenchmarkCertifyQuery1000000(b *testing.B) { benchCertifyQuery(b, 1_000_000) }

func BenchmarkRecycleRealize(b *testing.B) {
	in := benchInstance(b, 5000)
	g, err := recycle.FromCompleteDelegation(in, 0.05, 1)
	if err != nil {
		b.Fatal(err)
	}
	s := rng.New(9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.RealizeSum(s) < 0 {
			b.Fatal("impossible")
		}
	}
}

func BenchmarkRandomRegular(b *testing.B) {
	s := rng.New(11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.RandomRegular(2000, 8, s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBarabasiAlbert(b *testing.B) {
	s := rng.New(13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.BarabasiAlbert(2000, 4, s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLocalProtocol(b *testing.B) {
	s := rng.New(15)
	top, err := graph.RandomRegular(1000, 12, s)
	if err != nil {
		b.Fatal(err)
	}
	p := make([]float64, 1000)
	for i := range p {
		p[i] = 0.3 + 0.4*s.Float64()
	}
	in, err := core.NewInstance(top, p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := localsim.RunThresholdDelegation(context.Background(), in, 0.05, nil, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}
