package experiment

import (
	"context"
	"math"
	"slices"
	"sort"

	"liquid/internal/core"
	"liquid/internal/graph"
	"liquid/internal/mechanism"
	"liquid/internal/prob"
	"liquid/internal/recycle"
	"liquid/internal/report"
	"liquid/internal/rng"
)

// runL1 measures the Lemma 1 event empirically: for an independent
// Bernoulli sequence, how often does some prefix sum X_i with i >= j fall
// below (1 - eps/j^{1/3}) * mu(X_i)? The failure rate must decay in j.
func runL1(ctx context.Context, cfg Config) (*Outcome, error) {
	const eps = 1.0
	n := cfg.scaleInt(20000, 2000)
	reps := cfg.scaleInt(400, 60)
	root := rng.New(cfg.Seed)

	ps := root.DeriveString("p")
	p := make([]float64, n)
	for i := range p {
		p[i] = 0.3 + 0.4*ps.Float64()
	}
	g, err := recycle.NewIndependent(p)
	if err != nil {
		return nil, err
	}
	muPrefix := g.MeanPrefixSums()

	// Ascending, duplicate-free j values: the fused scan below and the
	// suffix-minimum fold both index segments by the rank of j.
	js := []int{10, 50, 250, 1250, n / 4}
	sort.Ints(js)
	js = slices.Compact(js)
	tab := report.NewTable("Lemma 1: P[exists i >= j with X_i < (1 - eps/j^{1/3}) mu(X_i)], eps=1",
		"j", "threshold factor at j", "failures", "reps", "failure rate", "Wilson 95% hi")

	rates := make([]float64, 0, len(js))
	// One pass per replication: realize once, test all j values on the same
	// path to keep the comparison paired. The realization and the per-j dip
	// scans fuse into a single quantized integer pass: each vertex draws one
	// uniform 32-bit half-word against its 32.32 fixed-point competency, and
	// a conservative integer gate filters dip candidates — a prefix count c
	// can only fall below factor_seg(i) * mu_i when c < gate[i], and the
	// factors ascend in j, so a vertex clearing its own segment's gate
	// clears factor_j for every j <= i. Only near-dip vertices reach the
	// float segment-minimum update, where the exact ratio decides.
	fails := make([]int, len(js))
	factors := make([]float64, len(js))
	for ji, j := range js {
		factors[ji] = 1 - eps/math.Cbrt(float64(j))
	}
	p64 := make([]uint64, n)
	for i, v := range p {
		p64[i] = uint64(v * (1 << 32)) // p strictly inside (0, 1) here
	}
	seg := make([]int, n)
	gate := make([]int, n) // zero below js[0]: no vertex there can gate
	invMu := make([]float64, n)
	for i, si := js[0], 0; i < n; i++ {
		for si+1 < len(js) && js[si+1] <= i {
			si++
		}
		seg[i] = si
		invMu[i] = 1 / muPrefix[i]
		// +1 pads against rounding in the float product: overestimating the
		// gate only sends extra vertices to the exact comparison.
		gate[i] = int(math.Ceil(factors[si]*muPrefix[i])) + 1
	}
	segMin := make([]float64, len(js))
	for r := 0; r < reps; r++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for ji := range segMin {
			segMin[ji] = math.Inf(1)
		}
		src := root.Derive(uint64(r) + 10).Source()
		c := 0
		var w uint64
		half := false
		for i := 0; i < n; i++ {
			if half {
				w >>= 32
				half = false
			} else {
				w = src.Uint64()
				half = true
			}
			// Borrow-bit indicator [u < p64[i]] — no data-dependent branch.
			c += int((w&0xffffffff - p64[i]) >> 63)
			if c < gate[i] {
				if v := float64(c) * invMu[i]; v < segMin[seg[i]] {
					segMin[seg[i]] = v
				}
			}
		}
		m := math.Inf(1)
		for ji := len(js) - 1; ji >= 0; ji-- {
			if segMin[ji] < m {
				m = segMin[ji]
			}
			if m < factors[ji] {
				fails[ji]++
			}
		}
	}
	for ji, j := range js {
		rate := float64(fails[ji]) / float64(reps)
		_, hi := prob.WilsonInterval(fails[ji], reps, 0.95)
		tab.AddRow(report.Itoa(j), report.F(factors[ji]), report.Itoa(fails[ji]),
			report.Itoa(reps), report.F(rate), report.F(hi))
		rates = append(rates, rate)
	}

	return &Outcome{
		Replications: reps,
		Tables:       []*report.Table{tab},
		Checks: []Check{
			check("failure rate non-increasing in j", isNonIncreasing(rates, 0.02), "rates %v", rates),
			check("large-j failure rate near zero", rates[len(rates)-1] < 0.05, "rate %v", rates[len(rates)-1]),
		},
	}, nil
}

// runL2 measures Lemma 2: recycle-sampled sums with partition complexity c
// stay above mu(X_n) - c*eps*n/j^{1/3}. We construct layered recycle graphs
// with exact complexity c and track both the violation rate of the bound
// and the worst observed normalized deviation, which should grow with c
// (the dependency makes the lower tail fatter) while staying inside the
// c-scaled envelope.
func runL2(ctx context.Context, cfg Config) (*Outcome, error) {
	const eps = 0.5
	n := cfg.scaleInt(10000, 1500)
	reps := cfg.scaleInt(300, 50)
	j := n / 10
	root := rng.New(cfg.Seed)

	tab := report.NewTable("Lemma 2: recycle-sampled concentration, j = n/10, eps = 0.5",
		"c", "mu(X_n)", "bound", "violations", "reps", "worst deviation", "stddev of X_n")

	cs := []int{1, 2, 4, 8}
	violationRates := make([]float64, 0, len(cs))
	stddevs := make([]float64, 0, len(cs))
	bt := prob.NewBinomialTables(n)
	for _, c := range cs {
		g, err := layeredRecycleGraph(n, j, c, root.Derive(uint64(c)))
		if err != nil {
			return nil, err
		}
		cGot := g.PartitionComplexity()
		if cGot != c {
			return nil, errf("layered graph complexity = %d, want %d", cGot, c)
		}
		mu := g.MeanSum()
		// The Lemma 2 threshold, from the mean and complexity computed once
		// above (recycle.Lemma2Bound recomputes both; formula kept in sync).
		bound := mu - float64(cGot)*eps*float64(n)/math.Cbrt(float64(max(g.J, 1)))

		// Layer collapse: each copy layer's sum is conditionally
		// Binomial(size, S/upTo) given the realized prefix (see layerRuns),
		// so a replication is j quantized fresh draws plus one exact
		// Binomial draw per layer instead of n per-vertex copies.
		runs, ok := layerRuns(g)
		if !ok || len(runs) == 0 || runs[0].start != j {
			return nil, errf("layered graph (c=%d) did not decompose into copy layers", c)
		}
		pq := make([]uint64, j)
		for i := range pq {
			pq[i] = uint64(g.P[i] * (1 << 32))
		}

		var sum prob.Summary
		violations := 0
		worst := 0.0
		for r := 0; r < reps; r++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			s := root.Derive(uint64(c)*1000 + uint64(r) + 1)
			src := s.Source()
			S := 0
			var w uint64
			half := false
			for i := 0; i < j; i++ {
				if half {
					w >>= 32
					half = false
				} else {
					w = src.Uint64()
					half = true
				}
				S += int((w&0xffffffff - pq[i]) >> 63)
			}
			for _, ru := range runs {
				// S is the prefix sum at ru.start == ru.upTo.
				S += bt.Draw(ru.size, float64(S)/float64(ru.upTo), s.Float64())
			}
			x := float64(S)
			sum.Add(x)
			if x < bound {
				violations++
			}
			if dev := mu - x; dev > worst {
				worst = dev
			}
		}
		rate := float64(violations) / float64(reps)
		violationRates = append(violationRates, rate)
		stddevs = append(stddevs, sum.StdDev())
		tab.AddRow(report.Itoa(c), report.F2(mu), report.F2(bound),
			report.Itoa(violations), report.Itoa(reps), report.F2(worst), report.F2(sum.StdDev()))
	}

	maxRate := 0.0
	for _, r := range violationRates {
		if r > maxRate {
			maxRate = r
		}
	}
	return &Outcome{
		Replications: reps,
		Tables:       []*report.Table{tab},
		Checks: []Check{
			check("Lemma 2 bound holds w.h.p. for every c", maxRate < 0.05, "max violation rate %v", maxRate),
			check("dependency widens the spread (stddev grows with c)",
				stddevs[len(stddevs)-1] > stddevs[0], "stddevs %v", stddevs),
		},
	}, nil
}

// layerRun is a maximal block of always-copy vertices whose shared copy
// prefix ends exactly where the block starts.
type layerRun struct{ start, size, upTo int }

// layerRuns decomposes g into a fresh prefix followed by collapsible copy
// layers: maximal consecutive blocks of z = 0 vertices with a constant copy
// bound equal to the block's own start index. Within such a block, every
// vertex copies a uniformly random vertex strictly before the block, so
// conditioned on the realized prefix x_0..x_{upTo-1} with sum S the block's
// values are i.i.d. Bernoulli(S/upTo) — and its sum is exactly
// Binomial(size, S/upTo). The joint law of the prefix sums at block
// boundaries (all any later block reads) therefore factorizes into one
// Binomial per block, which is what runL2 samples. Returns ok = false when
// g is not of this shape.
func layerRuns(g *recycle.Graph) ([]layerRun, bool) {
	n := g.N()
	i := 0
	for i < n && (g.UpTo[i] == 0 || g.Z[i] >= 1) {
		i++ // fresh prefix, realized per-vertex by the caller
	}
	var runs []layerRun
	for i < n {
		if g.Z[i] != 0 || g.UpTo[i] != i {
			return nil, false
		}
		u := g.UpTo[i]
		k := i
		for k < n && g.Z[k] == 0 && g.UpTo[k] == u {
			k++
		}
		runs = append(runs, layerRun{start: i, size: k - i, upTo: u})
		i = k
	}
	return runs, true
}

// layeredRecycleGraph builds a (j, c, n)-recycle graph with exact partition
// complexity c: after the fresh prefix of size j, the remaining vertices are
// split into c layers; each copying vertex copies uniformly from everything
// before its layer, and layer boundaries force chains of length exactly c.
func layeredRecycleGraph(n, j, c int, s *rng.Stream) (*recycle.Graph, error) {
	z := make([]float64, n)
	p := make([]float64, n)
	upTo := make([]int, n)
	for i := 0; i < n; i++ {
		p[i] = 0.3 + 0.4*s.Float64()
	}
	for i := 0; i < j; i++ {
		z[i] = 1
	}
	layer := (n - j) / c
	if layer < 1 {
		layer = 1
	}
	for i := j; i < n; i++ {
		t := (i - j) / layer // layer index
		if t >= c {
			t = c - 1
		}
		start := j + t*layer
		z[i] = 0
		upTo[i] = start
		if upTo[i] < j {
			upTo[i] = j
		}
	}
	return recycle.New(j, z, p, upTo)
}

// runL3 measures Lemma 3: with bounded competencies, delegating at most
// n^{1/2 - eps} votes flips the outcome with vanishing probability. The
// most harmful local delegation (k mid-tier voters delegate onto the single
// best voter, concentrating exactly k+1 weight) factorizes: both electorates
// share the n-k-1 voters outside the top group, so one common
// Poisson-binomial variable C serves both exact probabilities. With
// T = (n+1)/2 the majority threshold (sizes are odd) and S the direct-vote
// sum of the k+1 top-group voters,
//
//	P^M = p_top * P[C >= T-(k+1)] + (1-p_top) * P[C >= T]
//	P^D = sum_j P[S = j] * P[C >= T-j]
//
// replacing the two full n-voter PMFs of the direct formulation with one
// (n-k-1)-voter PMF plus O(n + k^2) work. Only the competency values are
// needed: no Instance, delegation graph, or resolution is materialized.
func runL3(ctx context.Context, cfg Config) (*Outcome, error) {
	const (
		beta = 0.2
		eps  = 0.1
	)
	sizes := dedupeSizes([]int{501, 1001, 2001, cfg.scaleInt(4001, 2001)})
	root := rng.New(cfg.Seed)

	tab := report.NewTable("Lemma 3: adversarial delegation of k = n^{1/2-eps} votes, p in (0.2, 0.8)",
		"n", "k delegated", "P^D", "P^M", "loss", "normal flip bound")

	ws := prob.NewWorkspace()
	losses := make([]float64, 0, len(sizes))
	bounds := make([]float64, 0, len(sizes))
	// One max-size buffer each for the draws, the common electorate, and
	// the tail sums, reused across sizes (the per-size garbage showed up in
	// the experiment benchmark's GC time).
	maxN := sizes[len(sizes)-1]
	psBuf := make([]float64, maxN)
	restBuf := make([]float64, 0, maxN)
	tailBuf := make([]float64, maxN+1)
	for _, n := range sizes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Same draw protocol as uniformInstance on K_n; the factorized
		// computation needs only the values.
		s := root.Derive(uint64(n))
		lo, hi := beta+0.01, 1-beta-0.01
		ps := psBuf[:n]
		for i := range ps {
			ps[i] = lo + (hi-lo)*s.Float64()
		}
		k := int(math.Pow(float64(n), 0.5-eps))

		// The k+1 largest competencies form the top group (the delegation
		// target and its delegators). Equal values are interchangeable in
		// both formulas, so the multiset split needs no id tiebreak.
		topVals, common := splitTopValues(ps, k+1, restBuf[:0])
		pTop := topVals[0]

		// Exact PMF of S over the k+1 top-group voters: O(k^2) DP.
		small := make([]float64, 1, len(topVals)+1)
		small[0] = 1
		for _, p := range topVals {
			small = append(small, 0)
			for j := len(small) - 1; j > 0; j-- {
				small[j] = small[j]*(1-p) + small[j-1]*p
			}
			small[0] *= 1 - p
		}

		pmf, err := ws.PMF(ws.UnitVoters(common))
		if err != nil {
			return nil, err
		}
		// tail[m] = P[C >= m].
		tail := tailBuf[:len(pmf)+1]
		tail[len(pmf)] = 0
		for m := len(pmf) - 1; m >= 0; m-- {
			tail[m] = tail[m+1] + pmf[m]
		}
		tailAt := func(m int) float64 {
			if m <= 0 {
				return 1
			}
			if m >= len(tail) {
				return 0
			}
			return tail[m]
		}

		T := (n + 1) / 2
		pm := pTop*tailAt(T-(k+1)) + (1-pTop)*tailAt(T)
		var pdAcc prob.Accumulator
		for j, q := range small {
			pdAcc.Add(q * tailAt(T-j))
		}
		pd := pdAcc.Sum()

		loss := pd - pm
		losses = append(losses, loss)
		var mu, v prob.Accumulator
		for _, p := range ps {
			mu.Add(p)
			v.Add(p * (1 - p))
		}
		bound := prob.FlipProbabilityBound(n, mu.Sum(), math.Sqrt(v.Sum()), 2*float64(k))
		bounds = append(bounds, bound)
		tab.AddRow(report.Itoa(n), report.Itoa(k), report.F(pd), report.F(pm),
			report.F(loss), report.F(bound))
	}

	return &Outcome{
		Tables: []*report.Table{tab},
		Checks: []Check{
			check("loss bounded by the flip-window probability",
				pairwiseAtMost(losses, bounds, 0.02), "losses %v bounds %v", losses, bounds),
			check("flip bound decays with n", trendDown(bounds, 0.02) || isNonIncreasing(bounds, 0.02),
				"bounds %v", bounds),
			check("loss stays small everywhere", maxAbs(losses) < 0.1, "losses %v", losses),
		},
	}, nil
}

// splitTopValues partitions the multiset ps into its m largest values
// (returned descending) and the remaining values, via a size-m min-heap in
// O(n log m) — no full sort. ps is not modified; rest values are appended
// to restBuf, so callers can hand the same buffer to every call.
func splitTopValues(ps []float64, m int, restBuf []float64) (top, rest []float64) {
	if m > len(ps) {
		m = len(ps)
	}
	h := make([]float64, 0, m) // min-heap over the m largest seen so far
	down := func() {
		i := 0
		for {
			l := 2*i + 1
			if l >= len(h) {
				return
			}
			if r := l + 1; r < len(h) && h[r] < h[l] {
				l = r
			}
			if h[i] <= h[l] {
				return
			}
			h[i], h[l] = h[l], h[i]
			i = l
		}
	}
	for _, p := range ps {
		if len(h) < m {
			h = append(h, p)
			for i := len(h) - 1; i > 0; {
				par := (i - 1) / 2
				if h[par] <= h[i] {
					break
				}
				h[par], h[i] = h[i], h[par]
				i = par
			}
		} else if p > h[0] {
			h[0] = p
			down()
		}
	}
	slices.Sort(h)
	slices.Reverse(h)
	top = h
	// Everything below the cutoff is rest; values equal to the cutoff are
	// split by count so exactly m values land in top.
	t := h[len(h)-1]
	equalTake := 0
	for _, p := range h {
		if p == t {
			equalTake++
		}
	}
	rest = restBuf
	for _, p := range ps {
		switch {
		case p > t:
		case p == t && equalTake > 0:
			equalTake--
		default:
			rest = append(rest, p)
		}
	}
	return top, rest
}

// runL5 measures Lemma 5/6: with every sink weight at most w, deviations of
// the realized correct weight from its mean stay inside sqrt(n^{1+eps} * w).
func runL5(ctx context.Context, cfg Config) (*Outcome, error) {
	const eps = 0.1
	n := cfg.scaleInt(4001, 801)
	reps := cfg.scaleInt(400, 80)
	root := rng.New(cfg.Seed)

	in, err := uniformInstance(graph.NewComplete(n), 0.25, 0.75, root.DeriveString("instance"))
	if err != nil {
		return nil, err
	}

	tab := report.NewTable("Lemma 5: deviation of correct weight vs max sink weight w (eps = 0.1)",
		"w", "sinks", "envelope sqrt(n^{1+eps} w)", "violations", "reps", "max |X - mu|", "mean |X - mu|")

	ws := []int{1, 4, 16, 64}
	meanDevs := make([]float64, 0, len(ws))
	maxViolationRate := 0.0
	for _, w := range ws {
		var res *core.Resolution
		if w == 1 {
			// Cap 1 cuts every delegation edge whatever the inner mechanism
			// draws, so the outcome is direct voting; build it without the
			// apply/cut/resolve pipeline.
			var err error
			res, err = core.NewDelegationGraph(n).Resolve()
			if err != nil {
				return nil, err
			}
		} else {
			mech := mechanism.WeightCapped{
				Inner:     mechanism.ApprovalThreshold{Alpha: 0.02},
				MaxWeight: w,
			}
			d, err := mech.Apply(in, root.Derive(uint64(w)))
			if err != nil {
				return nil, err
			}
			res, err = d.Resolve()
			if err != nil {
				return nil, err
			}
		}
		// Mean of the correct-weight variable.
		var mu float64
		for _, sk := range res.Sinks {
			mu += float64(res.Weight[sk]) * in.Competency(sk)
		}
		envelope := math.Sqrt(math.Pow(float64(n), 1+eps) * float64(w))

		// X = sum_k weight_k * Bernoulli(p_k), realized by the quantized
		// per-sink kernel: one 32-bit uniform half-word per sink against the
		// 32.32 fixed-point competency, weight applied branchlessly. With
		// reps well below the total weight, this is cheaper than building
		// the exact weighted-majority CDF and inverting it.
		sk64 := make([]uint64, len(res.Sinks))
		wts := make([]int, len(res.Sinks))
		for i, sk := range res.Sinks {
			sk64[i] = uint64(in.Competency(sk) * (1 << 32))
			wts[i] = res.Weight[sk]
		}

		violations := 0
		maxDev, sumDev := 0.0, 0.0
		voteStream := root.Derive(uint64(w) * 7919)
		src := voteStream.Source()
		// Every rep consumes half-words low-half first with an odd tail
		// taking the low half of its own word, so the pairwise unroll below
		// (and the multiply-free w == 1 variant — cap 1 forces every sink
		// weight to exactly 1) draws identically to a per-sink halfword loop.
		for r := 0; r < reps; r++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			xw := 0
			i := 0
			if w == 1 {
				for ; i+2 <= len(sk64); i += 2 {
					word := src.Uint64()
					xw += int((word&0xffffffff - sk64[i]) >> 63)
					xw += int((word>>32 - sk64[i+1]) >> 63)
				}
			} else {
				for ; i+2 <= len(sk64); i += 2 {
					word := src.Uint64()
					xw += wts[i] * int((word&0xffffffff-sk64[i])>>63)
					xw += wts[i+1] * int((word>>32-sk64[i+1])>>63)
				}
			}
			if i < len(sk64) {
				xw += wts[i] * int((src.Uint64()&0xffffffff-sk64[i])>>63)
			}
			dev := math.Abs(float64(xw) - mu)
			sumDev += dev
			if dev > maxDev {
				maxDev = dev
			}
			if dev > envelope {
				violations++
			}
		}
		rate := float64(violations) / float64(reps)
		if rate > maxViolationRate {
			maxViolationRate = rate
		}
		meanDevs = append(meanDevs, sumDev/float64(reps))
		tab.AddRow(report.Itoa(w), report.Itoa(len(res.Sinks)), report.F2(envelope),
			report.Itoa(violations), report.Itoa(reps), report.F2(maxDev), report.F2(sumDev/float64(reps)))
	}

	return &Outcome{
		Replications: reps,
		Tables:       []*report.Table{tab},
		Checks: []Check{
			check("envelope holds w.h.p. (violation rate < 5%)", maxViolationRate < 0.05,
				"max rate %v", maxViolationRate),
			check("deviation grows with w", meanDevs[len(meanDevs)-1] > meanDevs[0], "mean devs %v", meanDevs),
		},
	}, nil
}

// pairwiseAtMost reports xs[i] <= ys[i] + tol for all i.
func pairwiseAtMost(xs, ys []float64, tol float64) bool {
	for i := range xs {
		if xs[i] > ys[i]+tol {
			return false
		}
	}
	return true
}

// maxAbs returns max |x|.
func maxAbs(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}
