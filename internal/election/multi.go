package election

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"liquid/internal/core"
	"liquid/internal/mechanism"
	"liquid/internal/prob"
	"liquid/internal/rng"
)

// MultiDelegationProbability estimates, by Monte Carlo, the probability
// that the Section 6 multi-delegate weighted-majority scheme decides
// correctly: each voter's effective vote is the majority of its delegates'
// effective votes (its own Bernoulli draw breaks ties and is used by
// direct voters), and the final decision is the simple majority of all
// effective votes.
//
// Because voters only consult strictly more competent delegates (alpha >
// 0), the consultation graph is acyclic and effective votes are computed
// in one pass over voters in descending competency order.
//
// The draw order is a contract: samples one after another, and within a
// sample one s.Bernoulli-equivalent draw per voter with p in (0, 1), in
// descending competency order (ties by id). The kernel runs 64 samples at
// a time as bit lanes (see multiKernel), so a fixed seed reproduces the
// same estimate and leaves s at the same position as the one-sample-at-a-
// time loop would.
func MultiDelegationProbability(ctx context.Context, in *core.Instance, md *mechanism.MultiDelegation, samples int, s *rng.Stream) (float64, error) {
	n := in.N()
	if n == 0 {
		return 0, ErrNoVoters
	}
	if md.N() != n {
		return 0, fmt.Errorf("election: multi-delegation over %d voters, instance has %d", md.N(), n)
	}
	if samples <= 0 {
		samples = 2000
	}
	k, err := compileMulti(in, md)
	if err != nil {
		return 0, err
	}
	src := s.Source()
	wins := 0
	for done := 0; done < samples; done += 64 {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		wins += k.block(src, min(64, samples-done))
	}
	return float64(wins) / float64(samples), nil
}

// multiKernel is a MultiDelegation compiled for the bit-sliced sampler.
// Voters are renumbered by position in descending competency order, so
// every delegate precedes its consulter, and each position's votes for a
// block of up to 64 samples live in one uint64: bit t is sample t.
type multiKernel struct {
	// drawPos lists, ascending, the positions whose own vote is a draw
	// (p in (0, 1)); drawThr[j] is rng.Threshold of drawPos[j]'s p.
	drawPos []int32
	drawThr []uint64
	// drawn is drawLanes' output, aligned with drawPos.
	drawn []uint64
	rows  []multiRow
	// dels holds every row's delegate positions back to back; wts, set
	// only when md has weights, is aligned with it and only read for
	// weighted rows.
	dels []int32
	wts  []float64
	// own and vote are the current block's own and effective votes per
	// position. Positions with p >= 1 keep own = all ones and p <= 0 keep
	// zero; drawn positions are refilled every block.
	own, vote []uint64
	// tally is a bit-sliced per-lane counter of correct votes: bit t of
	// tally[b] is bit b of sample t's count. rowCount is the same for one
	// row's delegate votes.
	tally, rowCount []uint64
}

// multiRow is one position's rule for its effective vote.
type multiRow struct {
	lo, hi int32 // delegate range in dels and wts
	kind   rowKind
	// total is the weighted row's summed weight, accumulated in delegate
	// order: the order fixes its rounding, and ties compare against it.
	total float64
}

type rowKind uint8

const (
	rowDirect   rowKind = iota // no delegates: the own vote
	rowUnit                    // unit weights: a bit-sliced majority count
	rowWeighted                // other weights: float accumulation per lane
)

// compileMulti validates md against in and compiles it into a kernel.
func compileMulti(in *core.Instance, md *mechanism.MultiDelegation) (*multiKernel, error) {
	n := in.N()
	if md.Weights != nil && len(md.Weights) != n {
		return nil, fmt.Errorf("%w: %d weight rows for %d voters", core.ErrInvalidDelegation, len(md.Weights), n)
	}

	// Order voters so that every delegate precedes its consulter. Delegates
	// are strictly more competent, so descending competency order works;
	// the validation pass below verifies the DAG property to reject
	// adversarial inputs.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return in.Competency(order[a]) > in.Competency(order[b])
	})
	pos := make([]int, n)
	for idx, v := range order {
		pos[v] = idx
	}

	edges, maxK := 0, 0
	for v, ds := range md.Delegates {
		var ws []float64
		if md.Weights != nil {
			ws = md.Weights[v]
		}
		if ws != nil && len(ws) != len(ds) {
			return nil, fmt.Errorf("%w: voter %d has %d weights for %d delegates", core.ErrInvalidDelegation, v, len(ws), len(ds))
		}
		for m, j := range ds {
			if j < 0 || j >= n || j == v {
				return nil, fmt.Errorf("%w: voter %d consults %d", core.ErrInvalidDelegation, v, j)
			}
			if pos[j] >= pos[v] {
				return nil, fmt.Errorf("%w: voter %d consults non-predecessor %d", core.ErrCyclicDelegation, v, j)
			}
			if ws != nil && (!(ws[m] > 0) || math.IsInf(ws[m], 1)) {
				return nil, fmt.Errorf("%w: voter %d weighs delegate %d at %v, want positive and finite", core.ErrInvalidDelegation, v, j, ws[m])
			}
		}
		edges += len(ds)
		maxK = max(maxK, len(ds))
	}

	k := &multiKernel{
		drawPos:  make([]int32, 0, n),
		drawThr:  make([]uint64, 0, n),
		rows:     make([]multiRow, n),
		dels:     make([]int32, 0, edges),
		own:      make([]uint64, n),
		vote:     make([]uint64, n),
		tally:    make([]uint64, bits.Len(uint(n))),
		rowCount: make([]uint64, bits.Len(uint(maxK))),
	}
	if md.Weights != nil {
		k.wts = make([]float64, 0, edges)
	}
	for idx, v := range order {
		switch p := in.Competency(v); {
		case p >= 1:
			k.own[idx] = ^uint64(0)
		case p > 0:
			k.drawPos = append(k.drawPos, int32(idx))
			k.drawThr = append(k.drawThr, rng.Threshold(p))
		}
		ds := md.Delegates[v]
		r := multiRow{lo: int32(len(k.dels)), kind: rowUnit}
		if len(ds) == 0 {
			r.kind = rowDirect
		}
		for m, j := range ds {
			w := 1.0
			if md.Weights != nil && md.Weights[v] != nil {
				w = md.Weights[v][m]
			}
			if w != 1 {
				r.kind = rowWeighted
			}
			//lint:ignore floatacc delegate fan-ins are tiny (a handful of weights); compensating would perturb sampled values for no stability gain
			r.total += w
			k.dels = append(k.dels, int32(pos[j]))
			if k.wts != nil {
				k.wts = append(k.wts, w)
			}
		}
		r.hi = int32(len(k.dels))
		k.rows[idx] = r
	}
	k.drawn = make([]uint64, len(k.drawPos))
	return k, nil
}

// block runs the next lanes (1 to 64) samples and returns how many of them
// decided correctly. Own votes are drawn by drawLanes, in the sample-major
// order the scalar loop consumed them in. A unit-weight row's majority and
// each sample's correct-vote count come from bit-sliced counters; a
// weighted row accumulates its weights lane by lane in delegate order. A
// tied row takes the voter's own vote.
//
//lint:hotpath
func (k *multiKernel) block(src *rng.Source, lanes int) int {
	own, vote, tally := k.own, k.vote, k.tally
	drawLanes(src, k.drawn, k.drawThr, lanes)
	for j, i := range k.drawPos {
		own[i] = k.drawn[j]
	}

	clear(tally)
	for i, r := range k.rows {
		v := own[i]
		switch ds := k.dels[r.lo:r.hi]; r.kind {
		case rowUnit:
			if len(ds) == 1 {
				v = vote[ds[0]]
				break
			}
			c := k.rowCount[:bits.Len(uint(len(ds)))]
			clear(c)
			for _, j := range ds {
				addLanes(c, vote[j])
			}
			gt, eq := lanesAbove(c, uint64(len(ds)/2))
			if len(ds)%2 == 0 {
				gt |= eq & v
			}
			v = gt
		case rowWeighted:
			ws := k.wts[r.lo:r.hi]
			tie := v
			v = 0
			for t := 0; t < lanes; t++ {
				var yes float64
				for m, j := range ds {
					if vote[j]>>t&1 != 0 {
						//lint:ignore floatacc same tiny fan-in as the row total in compileMulti
						yes += ws[m]
					}
				}
				switch {
				case 2*yes > r.total:
					v |= 1 << t
				case 2*yes < r.total:
				default:
					v |= tie & (1 << t)
				}
			}
		}
		vote[i] = v
		addLanes(tally, v)
	}
	wins, _ := lanesAbove(tally, uint64(len(k.rows)/2))
	return bits.OnesCount64(wins & (^uint64(0) >> (64 - lanes)))
}

// drawLanes fills dst[j] with lanes samples of the Bernoulli draw whose
// threshold is thr[j], sample by sample: bit t of dst[j] is sample t. It
// is a function of its own so that the generator loop gets registers to
// itself rather than sharing them with block's row pass.
//
//lint:hotpath
func drawLanes(src *rng.Source, dst, thr []uint64, lanes int) {
	dst = dst[:len(thr)]
	clear(dst)
	for t := range lanes {
		for j, th := range thr {
			// The borrow bit of (x − th) is [x < th]: both are below 2^63.
			dst[j] |= ((src.Uint64()&(1<<53-1) - th) >> 63) << (t & 63)
		}
	}
}

// addLanes adds the 0/1 lanes of v into the bit-sliced counter c. Every
// lane's count must stay below 2^len(c).
func addLanes(c []uint64, v uint64) {
	for b := 0; v != 0; b++ {
		c[b], v = c[b]^v, c[b]&v
	}
}

// lanesAbove compares the bit-sliced counter c with h in every lane and
// returns the lanes whose count exceeds h and the lanes where it equals h.
// h must be below 2^len(c).
func lanesAbove(c []uint64, h uint64) (gt, eq uint64) {
	eq = ^uint64(0)
	for b := len(c) - 1; b >= 0; b-- {
		hb := -(h >> b & 1)
		gt |= eq & c[b] &^ hb
		eq &^= c[b] ^ hb
	}
	return gt, eq
}

// EvaluateMultiMechanism estimates the gain of a multi-delegate mechanism,
// averaging over both mechanism randomness and vote randomness. It runs on
// a Plan like a sweep point: P^D from the plan's "direct" stream, and
// replication r on stream r+1, whose "mechanism" child draws the
// multi-delegation and whose "votes" child samples it. The result is
// bit-identical for every Workers value. Cancelling ctx aborts the
// replications with ctx's error.
func EvaluateMultiMechanism(ctx context.Context, in *core.Instance, mech mechanism.MultiMechanism, opts Options) (*Result, error) {
	plan, err := NewPlan(in, opts)
	if err != nil {
		return nil, err
	}
	opts = plan.opts
	pd, err := plan.directProbability(ctx, opts, true, rng.New(opts.Seed).DeriveString("direct"))
	if err != nil {
		return nil, err
	}
	outs, err := plan.replicate(ctx, opts, func(s *rng.Stream, _ *prob.Workspace, _ *core.Resolver) repOut {
		md, err := mech.ApplyMulti(in, s.DeriveString("mechanism"))
		if err != nil {
			return repOut{err: err}
		}
		pm, err := MultiDelegationProbability(ctx, in, md, opts.VoteSamples, s.DeriveString("votes"))
		return repOut{pm: pm, delegators: md.NumDelegators(), err: err}
	})
	if err != nil {
		return nil, err
	}
	return summarize(&Result{Mechanism: mech.Name(), N: in.N(), PD: pd}, outs)
}
