package recycle

import "liquid/internal/rng"

// Realizer is the batched realization kernel for one Graph: it compiles
// the per-vertex sampling decisions into quantized tables and maximal
// same-kind runs once, and owns the realization scratch, so a replication
// loop pays one branch-free pass with zero allocation per sample. Its draw
// protocol is SumFast's own, not Graph.Realize's, which stays the
// definition; SumFast's mean is held to the exact MeanSum.
//
// A Realizer is NOT safe for concurrent use: it owns scratch. Each worker
// takes its own via Graph.Realizer().
type Realizer struct {
	// xq is the 0/1 realization scratch: bytes instead of bools so the
	// kernel can accumulate and select values arithmetically, with no
	// data-dependent branches for the predictor to miss on.
	xq []uint8

	// Quantized tables: probabilities as 32.32 fixed-point thresholds in
	// [0, 2^32] (compare a uniform 32-bit word against them) and copy bounds
	// widened for the multiply-shift index reduction.
	p64  []uint64
	z64  []uint64
	up64 []uint64

	// runs splits the vertices into maximal same-kind segments so SumFast
	// dispatches once per segment instead of once per vertex, and the
	// fresh/copy segment loops unpack two decisions per generator word with
	// no half-word toggle.
	runs []runSeg
	// sumConst is the fixed contribution of the degenerate (P <= 0 or
	// P >= 1) fresh vertices; their xq entries are prefilled at construction
	// and never rewritten, so runConst segments cost nothing per sample.
	sumConst int
}

// runSeg is one maximal segment [start, end) of vertices sharing a SumFast
// loop kind.
type runSeg struct {
	kind       uint8
	start, end int32
}

const (
	runConst uint8 = iota // degenerate fresh: prefilled, no draws
	runFresh              // Bernoulli compare, one half-word each
	runCopy               // copy index, one half-word each
	runMixed              // z-gate plus shared fresh/copy half-word
)

// quantize32 maps a probability to its 32.32 fixed-point threshold: a
// uniform u ~ U[0, 2^32) satisfies u < quantize32(p) with probability p up
// to 2^-32, and the clamp endpoints are exact (p <= 0 never, p >= 1 always).
func quantize32(p float64) uint64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1 << 32
	}
	return uint64(p * (1 << 32))
}

// runKind is vertex i's SumFast loop kind: fresh when it never copies
// (UpTo == 0 or Z >= 1), constant when that fresh draw is degenerate, copy
// when it always copies (Z <= 0), and mixed otherwise.
func (g *Graph) runKind(i int) uint8 {
	switch {
	case g.UpTo[i] == 0 || g.Z[i] >= 1:
		if g.P[i] <= 0 || g.P[i] >= 1 {
			return runConst
		}
		return runFresh
	case g.Z[i] <= 0:
		return runCopy
	default:
		return runMixed
	}
}

// Realizer compiles g into a reusable sampling kernel.
func (g *Graph) Realizer() *Realizer {
	n := g.N()
	r := &Realizer{
		xq:   make([]uint8, n),
		p64:  make([]uint64, n),
		z64:  make([]uint64, n),
		up64: make([]uint64, n),
	}
	for i := range n {
		r.p64[i] = quantize32(g.P[i])
		r.z64[i] = quantize32(g.Z[i])
		r.up64[i] = uint64(g.UpTo[i])
		k := g.runKind(i)
		if k == runConst && g.P[i] >= 1 {
			r.xq[i] = 1
			r.sumConst++
		}
		if len(r.runs) > 0 && r.runs[len(r.runs)-1].kind == k {
			r.runs[len(r.runs)-1].end++
		} else {
			r.runs = append(r.runs, runSeg{kind: k, start: int32(i), end: int32(i + 1)})
		}
	}
	return r
}

// SumFast samples one realization and returns X_n using the quantized
// kernel: decisions consume uniform 32-bit halves of raw generator words,
// compared against the 32.32 fixed-point tables compiled at construction.
// Copy indices use the multiply-shift reduction (u * upTo) >> 32. The
// realized values flow through arithmetic, not branches: with u < 2^32 and
// threshold t <= 2^32, the borrow bit (u - t) >> 63 IS the indicator
// [u < t], so the predictor never sees a coin flip.
//
// The draw protocol is per compiled run: fresh and copy segments unpack two
// decisions per word (low half first) with an odd-length tail taking the
// low half of its own word; mixed vertices consume a z half-word and then a
// value half-word (word-paired within their segment); degenerate vertices
// consume nothing. The word spent on an odd tail or an odd mixed pairing is
// not carried into the next segment, so the protocol is a function of the
// compiled run layout alone and fully deterministic for a fixed stream
// state.
//
// SumFast is NOT draw-compatible with Graph.Realize: it has its own
// protocol, and each variate carries a quantization error of at most 2^-32
// in probability — invisible at Monte Carlo sample counts but enough that
// switching a replication loop between RealizeSum and SumFast reseeds its
// sampled table. Callers choose one protocol and keep it.
//
//lint:hotpath
func (r *Realizer) SumFast(s *rng.Stream) int {
	src := s.Source()
	x, p64, up64 := r.xq, r.p64, r.up64
	sum := uint64(r.sumConst)
	for _, seg := range r.runs {
		i, end := int(seg.start), int(seg.end)
		switch seg.kind {
		case runConst:
			// Prefilled at construction and counted in sumConst.
		case runFresh:
			for ; i+2 <= end; i += 2 {
				w := src.Uint64()
				v0 := ((w & 0xffffffff) - p64[i]) >> 63
				v1 := ((w >> 32) - p64[i+1]) >> 63
				x[i] = uint8(v0)
				x[i+1] = uint8(v1)
				sum += v0 + v1
			}
			if i < end {
				v := ((src.Uint64() & 0xffffffff) - p64[i]) >> 63
				x[i] = uint8(v)
				sum += v
			}
		case runCopy:
			for ; i+2 <= end; i += 2 {
				w := src.Uint64()
				// The second load may hit the slot the first store just
				// wrote (vertex i+1 may copy vertex i), so the order here
				// is load-store, load-store.
				v0 := uint64(x[((w&0xffffffff)*up64[i])>>32])
				x[i] = uint8(v0)
				v1 := uint64(x[((w>>32)*up64[i+1])>>32])
				x[i+1] = uint8(v1)
				sum += v0 + v1
			}
			if i < end {
				v := uint64(x[((src.Uint64()&0xffffffff)*up64[i])>>32])
				x[i] = uint8(v)
				sum += v
			}
		default: // runMixed
			z64 := r.z64
			var w uint64
			half := false
			for ; i < end; i++ {
				if half {
					w >>= 32
					half = false
				} else {
					w = src.Uint64()
					half = true
				}
				zb := ((w & 0xffffffff) - z64[i]) >> 63
				if half {
					w >>= 32
					half = false
				} else {
					w = src.Uint64()
					half = true
				}
				u := w & 0xffffffff
				fv := (u - p64[i]) >> 63
				cv := uint64(x[(u*up64[i])>>32])
				v := zb*fv + (1-zb)*cv
				x[i] = uint8(v)
				sum += v
			}
		}
	}
	return int(sum)
}
