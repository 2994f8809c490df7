// Package scale is the million-voter tier: electorates described by a small
// generator spec and streamed in fixed-size chunks, so a 10^6–10^7-voter
// instance is evaluated end to end without any worker ever holding the full
// graph. A StreamInstance derives every voter's draws as a pure function of
// (seed, voter index) — SplitMix64 lanes, the same derivation primitive as
// internal/rng — which makes chunk generation stateless: any chunk can be
// produced independently, in any order, by any worker, with the competency
// stream invariant to how the index range is chunked.
//
// Delegation is chunk-local by construction: a voter either votes directly
// or delegates to an earlier voter in its own chunk. That is the modeling
// choice that makes resolution exactly chunk-decomposable — each chunk folds
// to its sink multiset independently (fold.go), summed in generation order,
// and the partials merge in chunk order — while still exhibiting the
// max-weight blowup pathology the scale experiments measure (Gölz et al.,
// "The Fluid Mechanics of Liquid Democracy"): as the delegation fraction
// grows, chains pile weight onto few sinks.
//
// StreamInstance implements prob.Seq, so the direct-vote distribution feeds
// prob.LadderMajority without materialising, and prob.MomentsMemo, so the
// ladder reuses the unit-weight moments a fold summed on its way through;
// the resolved weighted majority goes through the fold in fold.go and
// prob.CertifyMajority.
package scale

import (
	"fmt"
	"slices"
	"sync/atomic"

	"liquid/internal/prob"
	"liquid/internal/rng"
)

// defaultChunkSize is the chunk width when Spec.ChunkSize is zero: one
// prob.MomentBlock, so the fold sums the ladder's moment blocks as it goes
// (EvaluateMajority), and a worker's resident state stays in cache
// (~128 KiB of competencies).
const defaultChunkSize = prob.MomentBlock

// Per-voter derivation lanes: each voter's base word is split into
// independent draws by XORing a lane salt before the final SplitMix64 round.
// Arbitrary odd 64-bit constants; changing them reseeds every streamed
// electorate (TestStreamGolden pins the derivation). The instance root
// itself comes from rng.Derive(seed, "scale/stream"), so streamed
// electorates live in their own label namespace alongside every other
// seed-derived stream.
const (
	laneCompetency = 0xA076D05E9F1B3C47
	laneDelegate   = 0xC2B2AE3D27D4EB4F
	laneTarget     = 0x165667B19E3779F9
)

// Spec describes a streamed electorate. The zero values of ChunkSize, Low,
// and High select the defaults documented per field.
type Spec struct {
	// N is the electorate size (required, >= 1).
	N int
	// ChunkSize is the streaming chunk width (default 1<<14). It is part of
	// the instance definition: the chunk-local delegation topology depends
	// on it (competencies do not).
	ChunkSize int
	// Seed roots every voter's derived draws; equal specs generate
	// identical electorates.
	Seed uint64
	// Low and High bound the uniform competency range [Low, High). Both
	// zero selects [0.25, 0.75).
	Low, High float64
	// DelegateFrac is the probability that a voter (other than the first of
	// its chunk) delegates to an earlier voter in its chunk, in [0, 1].
	DelegateFrac float64
}

func (sp Spec) withDefaults() Spec {
	if sp.ChunkSize <= 0 {
		sp.ChunkSize = defaultChunkSize
	}
	if sp.Low == 0 && sp.High == 0 {
		sp.Low, sp.High = 0.25, 0.75
	}
	return sp
}

// StreamInstance is a streamed electorate: a validated Spec plus its derived
// root word. It is safe for concurrent use from any number of goroutines —
// chunk generation reads only the spec, and the one mutable field is a
// write-once memo of values that are a pure function of the spec.
type StreamInstance struct {
	spec Spec
	base uint64
	// moments holds the competency stream's unit-weight moments by
	// prob.MomentBlock's rule, stored by the first fold that summed them.
	moments atomic.Pointer[prob.SumStats]
}

// New validates spec and returns the streamed instance.
func New(spec Spec) (*StreamInstance, error) {
	spec = spec.withDefaults()
	if spec.N < 1 {
		return nil, fmt.Errorf("scale: spec.N = %d, want >= 1", spec.N)
	}
	if !(spec.Low >= 0 && spec.High <= 1 && spec.Low <= spec.High) {
		return nil, fmt.Errorf("scale: competency range [%v, %v) not within [0,1]", spec.Low, spec.High)
	}
	if !(spec.DelegateFrac >= 0 && spec.DelegateFrac <= 1) {
		return nil, fmt.Errorf("scale: DelegateFrac = %v not in [0,1]", spec.DelegateFrac)
	}
	return &StreamInstance{spec: spec, base: rng.Derive(spec.Seed, "scale/stream")}, nil
}

// Spec returns the (defaulted) spec the instance was built from.
func (s *StreamInstance) Spec() Spec { return s.spec }

// Len returns the electorate size. Part of prob.Seq.
func (s *StreamInstance) Len() int { return s.spec.N }

// NumChunks returns the number of chunks covering [0, Len).
func (s *StreamInstance) NumChunks() int {
	return (s.spec.N + s.spec.ChunkSize - 1) / s.spec.ChunkSize
}

// ChunkBounds returns chunk c's half-open voter index range [lo, hi).
func (s *StreamInstance) ChunkBounds(c int) (lo, hi int) {
	lo = c * s.spec.ChunkSize
	return lo, min(lo+s.spec.ChunkSize, s.spec.N)
}

// AppendRange appends the competencies of voters [lo, hi) to dst. Part of
// prob.Seq: this is the direct-vote distribution's streamed form.
func (s *StreamInstance) AppendRange(dst []float64, lo, hi int) []float64 {
	dst = slices.Grow(dst, hi-lo)
	for i := lo; i < hi; i++ {
		dst = append(dst, s.Competency(i))
	}
	return dst
}

// Moments returns the competency stream's unit-weight moments once a fold
// has stored them. Part of prob.MomentsMemo.
func (s *StreamInstance) Moments() (prob.SumStats, bool) {
	if m := s.moments.Load(); m != nil {
		return *m, true
	}
	return prob.SumStats{}, false
}

// voterWord derives voter i's base word: a pure function of (seed, i), so
// any worker can generate any voter without shared state, and every draw is
// invariant to chunk layout. The lanes split it into independent draws.
func (s *StreamInstance) voterWord(i int) uint64 {
	return rng.SplitMix64(s.base + uint64(i)*0x9E3779B97F4A7C15)
}

// lane derives one independent draw from a voter's base word.
func lane(w, salt uint64) uint64 { return rng.SplitMix64(w ^ salt) }

// unit maps a 64-bit word to [0, 1) with the same 53-bit conversion as
// rng.Stream.Float64.
func unit(w uint64) float64 {
	return float64(w<<11>>11) / (1 << 53)
}

// Competency returns voter i's competency: uniform in [Low, High), derived
// from (Seed, i) alone.
func (s *StreamInstance) Competency(i int) float64 { return s.competency(s.voterWord(i)) }

// competency maps a voter's base word w to its competency.
func (s *StreamInstance) competency(w uint64) float64 {
	return s.spec.Low + (s.spec.High-s.spec.Low)*unit(lane(w, laneCompetency))
}

// delegates reports whether the voter with base word w, at position pos
// within its chunk, delegates. The first voter of a chunk never does, so
// every chunk has at least one sink.
func (s *StreamInstance) delegates(w uint64, pos int) bool {
	if pos == 0 || s.spec.DelegateFrac <= 0 {
		return false
	}
	return unit(lane(w, laneDelegate)) < s.spec.DelegateFrac
}

// targetPos returns the chunk-local position the voter with base word w
// delegates to: uniform over the pos earlier voters of its chunk.
// Delegating strictly backwards makes every chain acyclic and resolvable in
// one forward pass.
func targetPos(w uint64, pos int) int {
	return int(lane(w, laneTarget) % uint64(pos))
}
