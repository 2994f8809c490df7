package prob

// The convolution engine: every exact PMF in this package — P^D or P^M,
// sequential or fork-join — is the distribution of a weighted sum of
// independent voters, and one engine computes it: Workspace.PMF and
// KernelMajority enter it, and PMFNaive runs its leaf over the whole set.
// The voter set is split (weight-balanced), each half's PMF is computed
// recursively, and the halves are merged by convolution. With FFT merges
// the work is O(W log^2 W) on total weight W instead of the naive DP's
// O(n*W); the crossover to the in-place DP is decided locally from a cost
// model, so small instances run exactly the code they always did while
// large ones get the asymptotic win. Direct voting is a weighted sum of
// unit-weight voters (Workspace.UnitVoters), so P^M of an all-direct
// profile equals P^D bit for bit by construction.
//
// The engine is four pieces: one split rule (dcSplit), one leaf kernel
// (dpInto), one merge (Workspace.convolve, clamped to a mass function), and
// one recursion (Workspace.dc) whose fork-join budget is optional.
//
// The cost model counts in "DP units" (one inner-loop update of the
// quadratic DP). Splitting a segment saves the difference between its DP
// cost and its halves' DP costs, and pays one FFT merge; the segment is a
// DP leaf whenever the merge costs more than it saves. fftUnitCost is the
// measured price of one FFT butterfly-equivalent in DP units (tuned with
// BenchmarkPoissonBinomialPMF; see DESIGN.md "Performance kernels").

import (
	"context"
	"math"
)

const (
	// Re-tuned from 4: the paired-FMA DP leaves run closer to peak than the
	// scalar FFT butterflies, so small merges go further before the FFT
	// pays for itself (~1.7x on BenchmarkPoissonBinomialPMF at n=2000, no
	// measurable change on the weight-heavy BenchmarkWeightedMajorityDP
	// whose large merges stay FFT either way). Tuned with both sides
	// scalar; on CPUs with the vector lanes both sides now run in lanes
	// (DESIGN.md §11 "Vector lanes"). It is not retuned: retuning moves
	// the crossover, and so changes bytes.
	fftUnitCost = 6
	dcMinLeaf   = 32
)

// fftMergeCost estimates, in DP units, the price of one convolution merge
// producing resultLen values: two transforms of the padded size plus the
// linear packing/unpacking passes.
func fftMergeCost(resultLen int) int64 {
	lg := ceilLog2(resultLen)
	m := int64(1) << lg
	return fftUnitCost * m * int64(lg)
}

// DeltaUpdateCost is the serving layer's delta admission class
// (server.EstimateWhatIfDeltaCost) in DP units, the same units as
// PoissonBinomialDPCost and WeightedMajorityDPCost: two root-sized FFT
// merges of total weight w, the price of patching one leaf of a
// weight-balanced convolution tree. A delta what-if runs the full exact
// kernels on the post-delta election, so this prices less work than the
// engine does; it stays the delta class until admission is calibrated
// against the engine's own decisions.
func DeltaUpdateCost(w int) int64 {
	if w <= 0 {
		return 1
	}
	return 2 * fftMergeCost(w+1)
}

// PoissonBinomialDPCost returns the DP-unit cost of the exact n-voter
// Poisson-binomial table (the naive quadratic DP, sum_{i=1..n} i updates;
// the D&C evaluator only ever does less work). Exported so admission
// control in the serving layer can price a request in the same units the
// kernel cost model uses.
func PoissonBinomialDPCost(n int) int64 {
	if n <= 0 {
		return 0
	}
	return int64(n) * int64(n+1) / 2
}

// WeightedMajorityDPCost returns the DP-unit cost of exactly scoring a
// weighted-majority distribution over k sinks with total weight w: each
// sink sweeps the support, k*w updates. This is the election engine's
// per-resolution cost estimate (election.Options.ExactCostLimit bounds it),
// re-exported so callers above the engine can budget with the same model.
func WeightedMajorityDPCost(k, w int) int64 {
	if k <= 0 || w <= 0 {
		return 0
	}
	return int64(k) * int64(w)
}

// dcLeaf is the engine's one leaf-or-split test: a segment of k voters and
// total weight w stays a DP leaf when it is too short to split, or when the
// DP work its split avoids (gain) does not pay for the FFT merge of its
// halves. ClassifyExactTier asks the same question of a unit-weight root.
func dcLeaf(k, w int, gain int64) bool {
	return k < dcMinLeaf || gain <= fftMergeCost(w+1)
}

// dcSplit returns the weight-balanced split point of the segment [lo, hi)
// of a voter sequence with prefix weights pw (pw[i] = sum of the first i
// weights), and whether the segment stays a DP leaf instead. The split is
// the smallest mid in (lo, hi) whose left weight reaches half the
// segment's, which keeps both convolution operands (and so the padded FFT
// size) small. Every decision depends only on prefix-weight differences
// inside the segment, so a segment's PMF is a pure function of its
// contents wherever it sits.
func dcSplit(pw []int64, lo, hi int) (mid int, leaf bool) {
	target := pw[lo] + (pw[hi]-pw[lo])/2
	a, b := lo+1, hi-1
	for a < b {
		m := (a + b) / 2
		if pw[m] < target {
			a = m + 1
		} else {
			b = m
		}
	}
	mid = min(a, hi)
	// The quadratic DP sweeps each voter over the support reached before
	// it; after the split, the hi-mid right-hand voters no longer sweep the
	// left half's pw[mid]-pw[lo] values. That product is the DP work saved.
	gain := int64(hi-mid) * (pw[mid] - pw[lo])
	return mid, dcLeaf(hi-lo, int(pw[hi]-pw[lo]), gain)
}

// dc computes the PMF of voters[lo:hi] into an arena slice of length
// pw[hi]-pw[lo]+1: a DP leaf, or the clamped convolution of its halves.
//
// With a fork budget b, a large right half may run in its own goroutine on
// a pooled workspace while this one computes the left half; every node
// checks ctx before descending. The result is bit-identical to the
// sequential recursion because nothing about the tree depends on
// scheduling: the split schedule is fixed, each forked subtree computes
// into its own workspace, and every merge happens in the parent after both
// children finish, always as convolve(left, right) in the parent's
// workspace. A nil b runs sequentially and never consults ctx, which may
// then be nil: the entry points without a context cannot be cancelled.
func (ws *Workspace) dc(ctx context.Context, voters []WeightedVoter, pw []int64, lo, hi int, b *forkBudget) ([]float64, error) {
	if b != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	w := int(pw[hi] - pw[lo])
	mid, leaf := dcSplit(pw, lo, hi)
	if leaf {
		cDCDPLeaves.Inc()
		f := ws.alloc(w + 1)
		dpInto(f, voters[lo:hi])
		return f, nil
	}
	cDCFFTMerges.Inc()
	mark := ws.off

	var childWS *Workspace
	var join chan forkResult
	if b != nil && w+1 >= parForkMinWeight && b.tryAcquire() {
		childWS = getWorkspace()
		childWS.reset(3*(int(pw[hi]-pw[mid])+1) + 64)
		join = make(chan forkResult, 1)
		go func(ctx context.Context, cws *Workspace) {
			defer b.release()
			f, err := cws.dc(ctx, voters, pw, mid, hi, b)
			join <- forkResult{f: f, err: err}
		}(ctx, childWS)
	}

	fl, err := ws.dc(ctx, voters, pw, lo, mid, b)
	var fr []float64
	if join != nil {
		r := <-join
		fr = r.f
		if err == nil {
			err = r.err
		}
	} else if err == nil {
		fr, err = ws.dc(ctx, voters, pw, mid, hi, b)
	}
	var out []float64
	if err == nil {
		// out takes the children's arena slots: convolve reads both
		// operands in full before it writes out.
		ws.off = mark
		out = ws.alloc(w + 1)
		ws.convolve(out, fl, fr, cpuLanes)
	}
	// The child workspace goes back to the pool only after its operand has
	// been consumed.
	if childWS != nil {
		putWorkspace(childWS)
	}
	return out, err
}

// pmf is the engine's entry point: the exact PMF of voters into ws memory,
// valid until the next kernel call on ws. workers > 1 lets up to that many
// goroutines cooperate on the tree; workers <= 1 runs sequentially, and
// ctx may then be nil.
func (ws *Workspace) pmf(ctx context.Context, voters []WeightedVoter, workers int) ([]float64, error) {
	pw := ws.prefixWeights(voters)
	ws.reset(3*(int(pw[len(voters)])+1) + 64)
	var b *forkBudget
	if workers > 1 {
		b = newForkBudget(workers)
	}
	return ws.dc(ctx, voters, pw, 0, len(voters), b)
}

// dpInto runs the exact O(k*W) DP over voters into f, which must have
// length (sum of weights)+1 and may hold garbage. It is the engine's one
// leaf kernel and, run over a whole voter set, the naive reference.
//
//lint:hotpath
func dpInto(f []float64, voters []WeightedVoter) {
	dpIntoLanes(f, voters, cpuLanes)
}

// dpIntoLanes is dpInto, with the bulk of every pass run four lanes at a
// time by the vector kernels when lanes is set (DESIGN.md §11 "Vector
// lanes"). The scalar loops finish each pass either way, and each lane
// performs the scalar loop's operations in its order, so the bits do not
// depend on lanes.
//
//lint:hotpath
func dpIntoLanes(f []float64, voters []WeightedVoter, lanes bool) {
	zeroFloats(f)
	f[0] = 1
	// Consecutive voters of equal weight are folded in as a pair: one pass
	// with the pair's convolution [a0, a1, a2] touches each f entry once
	// instead of twice, which matters because the DP is memory-bound.
	// math.FMA is the hardware fused multiply-add: one rounding instead of
	// two, deterministic across platforms (the softfloat fallback is
	// bit-identical).
	reached := 0
	i := 0
	for i < len(voters) {
		v := voters[i]
		w := v.Weight
		if i+1 < len(voters) && voters[i+1].Weight == w {
			p1, p2 := v.P, voters[i+1].P
			q1, q2 := 1-p1, 1-p2
			a0 := q1 * q2
			a1 := math.FMA(p1, q2, q1*p2)
			a2 := p1 * p2
			reached += 2 * w
			// The vector blocks take the pass's lanes from reached down to
			// at least 2w, and the scalar loop resumes at top. The kernel
			// checks no bounds, so f[reached] is checked before it runs.
			top := reached
			if lanes {
				blocks := (reached - 2*w + 1) / 4
				_ = f[reached]
				pairLanes(f, w, reached, blocks, a0, a1, a2)
				top -= 4 * blocks
			}
			if w == 1 {
				// Unit-weight pairs (every Poisson-binomial voter) run the
				// general loops below with constant offsets, which compile
				// to a tighter inner loop; the float operations are the
				// same.
				for t := top; t >= 2; t-- {
					f[t] = math.FMA(f[t-2], a2, math.FMA(f[t-1], a1, f[t]*a0))
				}
				f[1] = math.FMA(f[0], a1, f[1]*a0)
				f[0] *= a0
			} else {
				for t := top; t >= 2*w; t-- {
					f[t] = math.FMA(f[t-2*w], a2, math.FMA(f[t-w], a1, f[t]*a0))
				}
				for t := 2*w - 1; t >= w; t-- {
					f[t] = math.FMA(f[t-w], a1, f[t]*a0)
				}
				for t := w - 1; t >= 0; t-- {
					f[t] *= a0
				}
			}
			i += 2
			continue
		}
		p := v.P
		q := 1 - p
		reached += w
		top := reached
		if lanes {
			blocks := (reached - w + 1) / 4
			_ = f[reached]
			singleLanes(f, w, reached, blocks, p, q)
			top -= 4 * blocks
		}
		for t := top; t >= w; t-- {
			f[t] = math.FMA(f[t-w], p, f[t]*q)
		}
		for t := w - 1; t >= 0; t-- {
			f[t] *= q
		}
		i++
	}
}

// prefixWeights fills ws.pw with the prefix-weight table of voters.
func (ws *Workspace) prefixWeights(voters []WeightedVoter) []int64 {
	if cap(ws.pw) < len(voters)+1 {
		ws.pw = make([]int64, len(voters)+1)
	}
	pw := ws.pw[:len(voters)+1]
	pw[0] = 0
	for i, v := range voters {
		pw[i+1] = pw[i] + int64(v.Weight)
	}
	return pw
}

// appendUnitVoters appends one weight-1 voter per probability to dst: the
// Poisson binomial as the engine sees it.
func appendUnitVoters(dst []WeightedVoter, ps []float64) []WeightedVoter {
	for _, p := range ps {
		dst = append(dst, WeightedVoter{Weight: 1, P: p})
	}
	return dst
}

// copyClampNonneg copies src into dst, clamping the tiny negative values
// FFT rounding can produce (magnitude ~1e-16) to zero so downstream code
// always sees a valid mass function.
//
//lint:hotpath
func copyClampNonneg(dst, src []float64) {
	for i, v := range src {
		if v < 0 {
			v = 0
		}
		dst[i] = v
	}
}
