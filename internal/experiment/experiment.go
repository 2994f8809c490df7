// Package experiment defines and runs the reproduction experiments: one per
// figure (F1, F2), one per core lemma (L1, L2, L3, L4, L5, L7), the title
// phenomenon (V1), one per theorem (T2, T3, T4, T5), the Section 6 and
// related-work extensions (X1-X12), the design ablations (A1-A6), and the
// scale tier (S1, S2).
// DESIGN.md and EXPERIMENTS.md index them.
//
// Every experiment is deterministic given a Config and returns tables plus
// machine-checkable shape assertions ("Checks") that encode what the paper
// predicts qualitatively: who wins, what decays, what stays bounded.
package experiment

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"liquid/internal/core"
	"liquid/internal/graph"
	"liquid/internal/report"
	"liquid/internal/rng"
)

// ErrUnknownExperiment reports a lookup of an unregistered experiment id.
var ErrUnknownExperiment = errors.New("experiment: unknown experiment")

// Config controls experiment size and determinism.
type Config struct {
	// Seed drives all randomness; equal configs give identical outputs.
	Seed uint64
	// Scale in (0, 1] shrinks instance sizes and replication counts, so the
	// full suite can run quickly in tests. 1 reproduces the headline runs.
	Scale float64
	// Workers bounds parallelism inside election evaluation (0 = all
	// cores).
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Scale <= 0 || c.Scale > 1 {
		c.Scale = 1
	}
	return c
}

// scaleInt shrinks a size with Scale, keeping at least lo.
func (c Config) scaleInt(base, lo int) int {
	v := int(float64(base) * c.Scale)
	if v < lo {
		return lo
	}
	return v
}

// Check is one qualitative paper-shape assertion with its observed outcome.
type Check struct {
	Name   string
	Passed bool
	Detail string
}

// Outcome is an experiment's full result. It deliberately carries no
// wall-clock measurements: everything here feeds rendered tables, which must
// be byte-identical across runs and worker counts. Timing is observed by the
// execution engine around RunDefinition and reported on its telemetry-only
// event stream (see internal/lint/walltime for the static gate).
type Outcome struct {
	ID     string
	Title  string
	Claim  string // the paper's qualitative claim being tested
	Tables []*report.Table
	Checks []Check
	// Replications is the dominant Monte-Carlo replication count of the
	// experiment (0 for purely analytic experiments); the execution engine
	// reports it in ExperimentFinished events.
	Replications int
}

// Failed returns the names of failed checks.
func (o *Outcome) Failed() []string {
	var out []string
	for _, c := range o.Checks {
		if !c.Passed {
			out = append(out, c.Name)
		}
	}
	return out
}

// Definition describes a registered experiment.
type Definition struct {
	ID    string
	Title string
	Claim string
	Run   func(context.Context, Config) (*Outcome, error)
}

// registry holds all experiments in presentation order.
var registry = []Definition{
	{ID: "F1", Title: "Figure 1: star topology, dictatorship harms", Claim: "On the competent-center star, direct voting tends to 1 while any delegate-to-better mechanism concentrates all weight on the center, so P^M = 2/3 and the loss tends to 1/3.", Run: runF1},
	{ID: "F2", Title: "Figure 2: nine-voter example instance", Claim: "Algorithm 1 with threshold 0 and alpha=0.01 on the example instance yields an acyclic delegation graph in which every voter with a nonempty approval set delegates upward.", Run: runF2},
	{ID: "L1", Title: "Lemma 1: prefix deviation of independent sums", Claim: "For independent Bernoulli sums, the probability that some prefix beyond j falls below (1 - eps/j^{1/3}) of its mean decays exponentially in j^{1/3}.", Run: runL1},
	{ID: "L2", Title: "Lemma 2: recycle-sampled concentration", Claim: "A (j,c,n)-recycle-sampled sum stays above mu(X_n) - c*eps*n/j^{1/3} w.h.p.; the slack needed grows linearly with the partition complexity c.", Run: runL2},
	{ID: "L3", Title: "Lemma 3: anti-concentration do-no-harm", Claim: "With competencies in (beta, 1-beta), any mechanism delegating at most n^{1/2-eps} votes changes the outcome with probability tending to 0.", Run: runL3},
	{ID: "L4", Title: "Lemma 4: CLT for the direct-vote total", Claim: "With competencies bounded away from 0 and 1, the sum of direct votes converges to a normal distribution; the KS distance to the matching normal vanishes at the Berry-Esseen rate.", Run: runL4},
	{ID: "L5", Title: "Lemma 5: maximum sink weight bounds deviations", Claim: "If every sink has weight at most w, the realized correct weight deviates from its mean by more than sqrt(n^{1+eps} * w) only with probability e^{-Omega(n^eps)}.", Run: runL5},
	{ID: "L7", Title: "Lemma 7: increase in expectation on K_n", Claim: "Every delegation raises the expected number of correct votes by at least alpha, so mu(Y) >= mu(X) + (n-k)alpha, and the recycle-sampled sum concentrates above that bound.", Run: runL7},
	{ID: "V1", Title: "Variance manipulation (the title phenomenon)", Claim: "With mean competency below 1/2, delegation wins not by pushing the expected correct fraction past 1/2 but by inflating the outcome variance: concentrating weight on fewer independent sinks moves probability mass across the majority threshold.", Run: runV1},
	{ID: "T2", Title: "Theorem 2: complete graphs (Algorithm 1)", Claim: "On K_n with PC below 1/2 and enough delegation, Algorithm 1 achieves a constant positive gain (SPG); on bounded-competency instances its loss vanishes (DNH).", Run: runT2},
	{ID: "T3", Title: "Theorem 3: random d-regular sampling (Algorithm 2)", Claim: "Sampling d random neighbours per voter behaves like the complete graph with threshold j(d)n/d: positive gain under delegation, vanishing loss.", Run: runT3},
	{ID: "T4", Title: "Theorem 4: bounded-degree graphs", Claim: "With maximum degree at most n^{eps/(1+eps)}, any local mechanism gains when at least t voters delegate and does no harm under bounded competencies.", Run: runT4},
	{ID: "T5", Title: "Theorem 5: bounded minimum degree", Claim: "With minimum degree n^eps, the delegate-if-half-approved mechanism achieves SPG (Delegate(n) >= sqrt(n)) and DNH under bounded competencies.", Run: runT5},
	{ID: "X1", Title: "Extension: vote abstaining (Section 6)", Claim: "Allowing delegators to abstain preserves do-no-harm and keeps (a smaller) positive gain.", Run: runX1},
	{ID: "X2", Title: "Extension: weighted majority / multi-delegate (Section 6)", Claim: "Consulting k approved delegates and taking their majority performs at least as well as a single random delegate.", Run: runX2},
	{ID: "X3", Title: "Extension: real-world-like networks (Section 6)", Claim: "On Barabasi-Albert and community graphs, the Lemma 5 max-weight condition is measurable; hub concentration predicts where delegation is risky.", Run: runX3},
	{ID: "X4", Title: "Extension: probabilistic competencies (Section 6)", Claim: "With competencies drawn from a distribution (the Halpern et al. setting), below-1/2 families yield positive gain on almost every instance draw and no family shows nontrivial harm.", Run: runX4},
	{ID: "X5", Title: "Extension: connectivity vs gain on sparse topologies", Claim: "Rings, paths, and grids give tiny approval sets and little gain; richer connectivity (small-world, d-regular, complete) restores it — topology is what enables liquid democracy.", Run: runX5},
	{ID: "X6", Title: "Extension: voting-power concentration and token weights", Claim: "Delegation mechanisms trade dispersion for competence: concentration metrics (Gini, Nakamoto) rise along the mechanism ladder, weight caps tame them, and token-weighted DAO voting still gains while amplifying concentration.", Run: runX6},
	{ID: "X7", Title: "Extension: approvals estimated from track records", Claim: "With approval sets estimated from finite track records, misdelegation falls as history grows; estimation noise even adds gain below mean-1/2 (extra variance), but moderate histories measurably violate DNH where direct voting already wins — approval quality is load-bearing.", Run: runX7},
	{ID: "X8", Title: "Extension: rational delegation equilibria", Claim: "Best-response delegation with common-interest utility is a potential game: it converges to pure Nash equilibria that never fall below direct voting and typically match or beat the randomized mechanism.", Run: runX8},
	{ID: "X9", Title: "Extension: adaptive liquid democracy over sequential issues", Claim: "A community re-learning approval sets from each decided issue bootstraps liquid democracy from observable information: accuracy climbs from the direct-voting level and misdelegation decays with experience.", Run: runX9},
	{ID: "X10", Title: "Extension: degree-competency correlation (misinformation hubs)", Claim: "On scale-free graphs, approval-based delegation piles weight onto competent hubs but routes around incompetent ones — local approval filtering defends against influential-but-wrong voters.", Run: runX10},
	{ID: "X11", Title: "Extension: reputation-farming attacks and the weight-cap defence", Claim: "A coalition that farms a perfect track record can capture outsized delegated weight and steal an election the honest majority would win; the Lemma 5 weight cap bounds the capture and blunts the attack.", Run: runX11},
	{ID: "X12", Title: "Extension: spectral gap vs decentralized tally speed", Claim: "The structural symmetry that makes liquid democracy safe also makes it fast: push-sum gossip spreads the tally in rounds inversely related to the topology's spectral gap.", Run: runX12},
	{ID: "A1", Title: "Ablation: delegation threshold j(n)", Claim: "Small thresholds maximize delegation and gain in the SPG regime; very large thresholds converge to direct voting.", Run: runA1},
	{ID: "A2", Title: "Ablation: approval margin alpha", Claim: "Alpha trades per-delegation gain (>= alpha each) against the number of eligible delegations; partition complexity scales as 1/alpha.", Run: runA2},
	{ID: "A6", Title: "Ablation: paired mechanism duels", Claim: "Common-random-number pairing resolves the mechanism ordering: randomized threshold delegation beats direct and greedy in the SPG regime, small alpha beats large, caps cost a little gain, and everything ties in the DNH regime.", Run: runA6},
	{ID: "A5", Title: "Ablation: tie-breaking rule", Claim: "The ties-lose rule of Section 2.2 is asymptotically irrelevant: the three tie rules differ exactly by the tie probability, which vanishes as 1/sqrt(n).", Run: runA5},
	{ID: "A4", Title: "Ablation: mean-competency crossover", Claim: "Delegation's advantage collapses as the electorate's mean competency crosses 1/2: on K_n the gain converges to zero (direct voting already wins), while concentrating mechanisms flip from helpful to harmful.", Run: runA4},
	{ID: "A3", Title: "Ablation: exact DP vs Monte-Carlo engine", Claim: "The exact weighted-majority DP and the sampling engine agree within sampling error.", Run: runA3},
	{ID: "R1", Title: "Robustness: availability faults and recovery policies", Claim: "When sinks go down or voters abstain, do-no-harm degrades gracefully: losing the stranded weight hurts measurably, while fallback-to-direct and redelegation recover most of it; with no faults the recovery machinery is bit-for-bit invisible.", Run: runR1},
	{ID: "R2", Title: "Robustness: crash faults and partitions in the distributed protocol", Claim: "The crash-tolerant convergecast accounts for every weight unit under crash-stop faults, partitions, duplication and reordering (live + trapped == n), benign plans reproduce the fault-free run exactly, and the surviving election degrades only with the weight actually trapped at crashed nodes.", Run: runR2},
	{ID: "R3", Title: "Robustness: sustained delegation churn under incremental re-evaluation", Claim: "An evaluation scenario absorbs per-period delegation churn, scoring each period through the memoized exact kernels, while every period conserves its n votes and its P^M stays bit-identical to from-scratch exact scoring; below mean competency 1/2 the churned profiles still beat direct voting on average (the variance thesis is robust to who exactly delegates).", Run: runR3},
	{ID: "R4", Title: "Robustness: evolving electorates via add-voter and competency deltas", Claim: "Growing a preferential-attachment electorate one add-voter delta at a time, and replaying a partial-participation track record through sparse competency deltas, both keep the chained plan bit-identical to from-scratch instances at every step — incremental re-evaluation is exact on structurally evolving elections, where direct voting decays below mean 1/2 and misdelegation stays controlled as records accumulate.", Run: runR4},
	{ID: "S1", Title: "Scale: max-weight blowup on a streamed million-voter electorate", Claim: "Streaming a 10^6-voter electorate in fixed-size chunks, raising the delegation fraction concentrates weight on fewer sinks and inflates both the maximum sink weight and the standard deviation of the correct-vote count — the variance manipulation of the title — which in turn widens the certifiable interval; at moderate delegation the certificate from folded sufficient statistics stays inside the error budget, and the direct vote resolves through the ladder's normal tier within 1e-3, all without any worker materialising the full instance.", Run: runS1},
	{ID: "S2", Title: "Scale: approximation-ladder tier escalation and certified containment", Claim: "With a fixed 1e-3 error budget, the approximation ladder auto-selects the cheapest sound tier at every size — exact DP for small prefixes, FFT divide-and-conquer at the cost-model crossover, normal-plus-Hoeffding certification once concentration makes the analytic band tight — escalating monotonically with n and always returning an interval that contains the exact tail mass wherever the quadratic reference is feasible.", Run: runS2},
}

// All returns the experiment definitions in presentation order.
func All() []Definition {
	out := make([]Definition, len(registry))
	copy(out, registry)
	return out
}

// IDs returns all experiment ids in order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, d := range registry {
		out[i] = d.ID
	}
	return out
}

// Lookup finds an experiment by id.
func Lookup(id string) (Definition, error) {
	for _, d := range registry {
		if d.ID == id {
			return d, nil
		}
	}
	return Definition{}, fmt.Errorf("%w: %q (known: %v)", ErrUnknownExperiment, id, IDs())
}

// Run executes one experiment by id. Cancelling ctx aborts the experiment
// between (and inside) its replication loops with ctx's error.
func Run(ctx context.Context, id string, cfg Config) (*Outcome, error) {
	def, err := Lookup(id)
	if err != nil {
		return nil, err
	}
	return RunDefinition(ctx, def, cfg)
}

// RunDefinition executes one definition directly, bypassing the registry
// lookup. This is the entry point the execution engine uses, and it lets
// tests schedule synthetic experiments.
func RunDefinition(ctx context.Context, def Definition, cfg Config) (*Outcome, error) {
	out, err := def.Run(ctx, cfg.withDefaults())
	if err != nil {
		return nil, fmt.Errorf("experiment %s: %w", def.ID, err)
	}
	out.ID = def.ID
	out.Title = def.Title
	out.Claim = def.Claim
	return out, nil
}

// --- shared helpers ---

// uniformInstance builds an instance over top with competencies uniform in
// [lo, hi).
func uniformInstance(top graph.Topology, lo, hi float64, s *rng.Stream) (*core.Instance, error) {
	p := make([]float64, top.N())
	for i := range p {
		p[i] = lo + float64((hi-lo)*s.Float64())
	}
	return core.NewInstance(top, p)
}

// dedupeSizes removes duplicate entries from a non-decreasing size sweep
// (duplicates appear when Scale clamps the largest size onto the previous
// one).
func dedupeSizes(sizes []int) []int {
	out := sizes[:0]
	for i, v := range sizes {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// errf is a local alias for fmt.Errorf to keep experiment bodies compact.
func errf(format string, args ...any) error { return fmt.Errorf(format, args...) }

// check builds a Check from a condition.
func check(name string, passed bool, detailFmt string, args ...any) Check {
	return Check{Name: name, Passed: passed, Detail: fmt.Sprintf(detailFmt, args...)}
}

// isNonIncreasing reports whether xs is non-increasing up to tol.
func isNonIncreasing(xs []float64, tol float64) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i] > xs[i-1]+tol {
			return false
		}
	}
	return true
}

// trendDown reports whether the last element is clearly below the first.
func trendDown(xs []float64, margin float64) bool {
	if len(xs) < 2 {
		return false
	}
	return xs[len(xs)-1] <= xs[0]-margin || (xs[0] <= margin && xs[len(xs)-1] <= margin)
}

// minFloat returns the minimum of xs (+Inf for empty).
func minFloat(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// sortedCopy returns a sorted copy of xs.
func sortedCopy(xs []float64) []float64 {
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return cp
}
