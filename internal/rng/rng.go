// Package rng provides deterministic, splittable random number streams.
//
// Every experiment in this repository is driven by a single 64-bit seed.
// Independent substreams are derived from (seed, label) pairs using
// SplitMix64, so parallel replications draw from non-overlapping streams
// regardless of scheduling order. The underlying generator is PCG
// (math/rand/v2), which is fast and statistically strong for simulation.
package rng

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
)

// Stream is a deterministic random stream. The zero value is not usable;
// construct streams with New or Derive.
type Stream struct {
	rand *rand.Rand
	// pcg is the same generator s.rand wraps, held concretely so hot draws
	// (Uint64, Float64, IntN, Bernoulli) skip the rand.Source interface
	// dispatch. Both handles advance one shared state, so fast draws and
	// rand.Rand draws (Perm, NormFloat64, ...) interleave coherently.
	pcg  *rand.PCG
	seed uint64
}

// Source is the concrete generator behind a Stream. Batched kernels that
// cannot afford a call per variate take a *Source via Stream.Source and
// draw raw 64-bit words directly; everything else should stay on the
// Stream methods. The alias keeps math/rand/v2 an implementation detail of
// this package (the seedflow analyzer bans importing it anywhere else).
type Source = rand.PCG

// New returns a stream seeded from seed. Two streams built from the same
// seed produce identical outputs.
func New(seed uint64) *Stream {
	s0 := SplitMix64(seed)
	s1 := SplitMix64(s0)
	pcg := rand.NewPCG(s0, s1)
	return &Stream{
		rand: rand.New(pcg),
		pcg:  pcg,
		seed: seed,
	}
}

// Source returns the stream's concrete generator. Drawing from it advances
// the same state as the Stream methods; a kernel may mix Source draws with
// Stream draws and remain deterministic for a fixed call sequence.
func (s *Stream) Source() *Source { return s.pcg }

// Seed reports the seed this stream was constructed with.
func (s *Stream) Seed() uint64 { return s.seed }

// Derive returns a new stream that is statistically independent of s and of
// any stream derived with a different label. Deriving does not consume
// randomness from s, so the order of Derive calls relative to draws does not
// matter.
func (s *Stream) Derive(label uint64) *Stream {
	return New(mix(s.seed, label))
}

// DeriveString derives a substream from a string label. Useful for naming
// experiment components ("graph", "votes", ...).
func (s *Stream) DeriveString(label string) *Stream {
	return s.Derive(fnv64(label))
}

// Derive derives a sub-seed from a root seed and an ordered list of string
// labels. It is the canonical way to give every experiment, sweep point, and
// trial its own independent stream: seeds derived with different label paths
// are statistically independent, regardless of how numerically close the
// roots or how similar the labels are.
//
// Derivation is hierarchical: labels fold left one at a time, so
//
//	Derive(root, "exp", "trial=3") == Derive(Derive(root, "exp"), "trial=3")
//
// and with no labels Derive returns root unchanged. This lets a scheduler
// derive a per-experiment root once and hand it down, while leaf code derives
// per-trial seeds from it — the result is identical to deriving the full path
// in one call, so the seed a trial sees never depends on scheduling order.
//
// The mixing function (SplitMix64 over a FNV-64 label hash) is part of the
// package's compatibility surface: changing it silently reseeds every
// experiment. TestDeriveGolden pins it.
func Derive(root uint64, labels ...string) uint64 {
	h := root
	for _, label := range labels {
		h = mix(h, fnv64(label))
	}
	return h
}

// fnv64 hashes a label with FNV-64a-style folding.
func fnv64(label string) uint64 {
	h := uint64(14695981039346656037) // FNV-64 offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211 // FNV-64 prime
	}
	return h
}

// The hot draw methods below reimplement the corresponding math/rand/v2
// conversions on the concrete generator, bit-for-bit (TestStreamMatchesRandV2
// pins the equivalence): rand.Rand reaches the PCG through a rand.Source
// interface, and the dispatch is measurable in draw-bound kernels.

// Uint64 returns a uniformly distributed 64-bit value.
func (s *Stream) Uint64() uint64 { return s.pcg.Uint64() }

// Float64 returns a uniform value in [0, 1).
func (s *Stream) Float64() float64 {
	// Identical to math/rand/v2: exactly 1<<53 float64s in [0, 1).
	return float64(s.pcg.Uint64()<<11>>11) / (1 << 53)
}

// IntN returns a uniform value in [0, n). It panics if n <= 0, matching
// math/rand/v2 semantics.
func (s *Stream) IntN(n int) int {
	if n <= 0 {
		panic("invalid argument to IntN")
	}
	un := uint64(n)
	if un&(un-1) == 0 { // power of two: mask, as rand/v2 does
		return int(s.pcg.Uint64() & (un - 1))
	}
	// Lemire's unbiased multiply-shift reduction, drawing again on the
	// biased low-word region — the same algorithm (and therefore the same
	// draw sequence) as math/rand/v2's uint64n.
	hi, lo := bits.Mul64(s.pcg.Uint64(), un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			hi, lo = bits.Mul64(s.pcg.Uint64(), un)
		}
	}
	return int(hi)
}

// Bernoulli returns true with probability p. Values of p outside [0, 1] are
// clamped: p <= 0 always yields false and p >= 1 always yields true.
func (s *Stream) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Threshold returns ceil(p·2^53), the integer threshold of a Bernoulli(p)
// draw, for p in (0, 1). Bernoulli(p) is true exactly when
// u&(1<<53-1) < Threshold(p) for the word u it draws: Float64 is
// float64(u<<11>>11)/2^53, both sides of its comparison with p are exact
// (scaling by a power of two loses no bits), and for an integer x,
// x < y iff x < ceil(y). Kernels that draw many Bernoulli variates from a
// Source decide each one branch-free by the borrow bit of the compare,
//
//	hit := (src.Uint64()&(1<<53-1) - th) >> 63 // 1 iff the low bits < th
//
// which is exact because both operands are at most 2^53. Such kernels
// must skip the draw where Bernoulli does: p <= 0 and p >= 1 draw nothing.
func Threshold(p float64) uint64 { return uint64(math.Ceil(p * (1 << 53))) }

// NormFloat64 returns a standard normal variate.
func (s *Stream) NormFloat64() float64 { return s.rand.NormFloat64() }

// ExpFloat64 returns an exponential variate with rate 1.
func (s *Stream) ExpFloat64() float64 { return s.rand.ExpFloat64() }

// Perm returns a random permutation of [0, n).
func (s *Stream) Perm(n int) []int { return s.rand.Perm(n) }

// Shuffle randomizes the order of n elements using swap.
func (s *Stream) Shuffle(n int, swap func(i, j int)) { s.rand.Shuffle(n, swap) }

// SampleWithoutReplacement returns k distinct values drawn uniformly from
// [0, n). It panics if k > n or k < 0. The result is not sorted.
//
// For small k relative to n it uses rejection from a set; otherwise it uses a
// partial Fisher-Yates shuffle.
func (s *Stream) SampleWithoutReplacement(n, k int) []int {
	return s.AppendSampleWithoutReplacement(nil, n, k)
}

// AppendSampleWithoutReplacement appends to dst the k values
// SampleWithoutReplacement(n, k) would return, consuming the same words of
// the stream, and returns the extended slice. A caller drawing many samples
// reuses one buffer: dst[:0] keeps its capacity. It panics if k > n or
// k < 0.
func (s *Stream) AppendSampleWithoutReplacement(dst []int, n, k int) []int {
	if k < 0 || k > n {
		panic("rng: SampleWithoutReplacement requires 0 <= k <= n")
	}
	if k == 0 {
		return dst
	}
	base := len(dst)
	// Rejection sampling is expected O(k) when k << n and avoids the O(n)
	// allocation of a full index slice.
	if k*8 < n {
		out := slices.Grow(dst, k)
		if k <= sampleScanMax {
			for len(out)-base < k {
				if v := s.IntN(n); !slices.Contains(out[base:], v) {
					out = append(out, v)
				}
			}
			return out
		}
		seen := make(map[int]struct{}, k)
		for len(out)-base < k {
			v := s.IntN(n)
			if _, dup := seen[v]; dup {
				continue
			}
			seen[v] = struct{}{}
			out = append(out, v)
		}
		return out
	}
	// The shuffle runs over all n indices in dst's spare capacity and keeps
	// the first k.
	out := slices.Grow(dst, n)[:base+n]
	idx := out[base:]
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + s.IntN(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return out[:base+k]
}

// sampleScanMax is the largest k for which SampleWithoutReplacement's
// rejection path finds duplicates by scanning the values drawn so far
// rather than through a map. The scan costs about k²/2 compares but no
// hashing and no allocation beyond the result. It is faster than the map
// at k = 64 and slower at k = 128 (BenchmarkSampleWithoutReplacement,
// n = 2000).
const sampleScanMax = 64

// SplitMix64 advances the SplitMix64 generator once from state x and returns
// the output. It is used for seed derivation because it is a bijective,
// well-mixed function on 64-bit integers.
func SplitMix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	z := x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// mix combines a seed and a label into a new seed.
func mix(seed, label uint64) uint64 {
	return SplitMix64(SplitMix64(seed) ^ SplitMix64(label^0xD1B54A32D192ED03))
}
