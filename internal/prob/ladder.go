package prob

// The approximation ladder. Million-voter electorates cannot afford — and do
// not need — the exact kernels: the normal approximation's certified error
// shrinks like 1/sqrt(n), so beyond a few thousand voters a rigorous interval
// of width far below any experimental tolerance costs one O(n) streaming pass
// instead of an O(n log^2 n) convolution tree. The ladder puts the three
// evaluation strategies behind one entry point:
//
//	exact DP   — the quadratic convolution DP, error exactly 0;
//	FFT D&C    — the divide-and-conquer evaluator with FFT merges, error
//	             bounded by the kernel's cross-validated total-variation
//	             budget (FuzzConvolutionEquivalence enforces it);
//	normal     — the Berry–Esseen-certified normal approximation intersected
//	             with the one-sided Hoeffding tail bound, from one streaming
//	             moments pass that never materialises the electorate.
//
// LadderMajority auto-selects the cheapest tier whose certified half-width
// fits the caller's error budget, and every tier returns a CertifiedInterval
// — a point estimate plus a machine-checkable rigorous half-width — instead
// of a bare float. The metamorphic property tests in ladder_test.go and the
// FuzzLadderSoundness target hold every tier to the containment contract:
// the exact value always lies inside any cheaper tier's interval.

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
)

// Tier identifies a rung of the approximation ladder.
type Tier int

const (
	// TierAuto selects the cheapest tier whose certified half-width fits the
	// error budget (the zero value, so LadderOptions defaults to it).
	TierAuto Tier = iota
	// TierExact is the quadratic convolution DP: half-width exactly 0.
	TierExact
	// TierFFT is the divide-and-conquer evaluator with FFT merges:
	// half-width FFTTierErrorBudget.
	TierFFT
	// TierNormal is the certified normal approximation: half-width from the
	// Berry–Esseen bound intersected with the Hoeffding tail bound.
	TierNormal
)

// String returns the tier's wire name (stable; the serving layer reports it).
func (t Tier) String() string {
	switch t {
	case TierAuto:
		return "auto"
	case TierExact:
		return "exact"
	case TierFFT:
		return "fft"
	case TierNormal:
		return "normal"
	default:
		return "unknown"
	}
}

// FFTTierErrorBudget is the certified half-width of a TierFFT result: the
// total-variation budget the D&C evaluator is held to against the naive DP
// (FuzzConvolutionEquivalence in `make check` fuzz-smoke; observed error is
// ~1e-15, the budget leaves six orders of headroom). Total-variation distance
// dominates any tail-sum difference, so the majority mass inherits it.
const FFTTierErrorBudget = 1e-9

// ErrBudgetInfeasible reports that no ladder tier could certify the requested
// error budget within the cost constraints. The interval returned alongside
// it is still valid — the tightest certified one available — so callers that
// prefer degraded answers over refusals (the serving layer) can use it.
var ErrBudgetInfeasible = errors.New("prob: error budget infeasible within cost constraints")

// CertifiedInterval is a point estimate of a probability together with a
// rigorous half-width: the exact value provably lies in [Lo, Hi]. Tier
// records which rung produced it.
type CertifiedInterval struct {
	Point     float64
	HalfWidth float64
	Tier      Tier
}

// Lo returns the interval's lower bound, clamped to the probability domain.
func (ci CertifiedInterval) Lo() float64 { return clamp01(ci.Point - ci.HalfWidth) }

// Hi returns the interval's upper bound, clamped to the probability domain.
func (ci CertifiedInterval) Hi() float64 { return clamp01(ci.Point + ci.HalfWidth) }

// Contains reports whether v lies inside the certified interval.
func (ci CertifiedInterval) Contains(v float64) bool {
	return v >= ci.Lo() && v <= ci.Hi()
}

// Seq is a probability sequence read by index range: AppendRange appends
// the values at indices [lo, hi) to dst and returns the extended slice.
// internal/scale's StreamInstance is the million-voter implementation;
// SliceSeq adapts an in-memory vector.
type Seq interface {
	Len() int
	AppendRange(dst []float64, lo, hi int) []float64
}

// SliceSeq adapts an in-memory probability vector to Seq. The values are
// borrowed, not copied.
type SliceSeq []float64

// Len returns the sequence length.
func (s SliceSeq) Len() int { return len(s) }

// AppendRange appends the values at indices [lo, hi) to dst.
func (s SliceSeq) AppendRange(dst []float64, lo, hi int) []float64 {
	return append(dst, s[lo:hi]...)
}

// MomentBlock is the normal tier's block width: unit-weight moments are
// summed over consecutive blocks of MomentBlock values, each in index order
// (AddUnits), and the block partials merge in block order. The moments are
// thus a pure function of the values, whoever sums the blocks.
const MomentBlock = 1 << 14

// MomentsMemo is an optional Seq extension: Moments returns the sequence's
// unit-weight moments by MomentBlock's rule once something has summed them.
type MomentsMemo interface {
	Moments() (SumStats, bool)
}

// UnitMoments returns seq's unit-weight moments by MomentBlock's rule,
// summing the blocks on up to workers goroutines unless a MomentsMemo holds
// them. A value outside [0, 1] is an error.
func UnitMoments(ctx context.Context, seq Seq, workers int) (*SumStats, error) {
	if m, ok := seq.(MomentsMemo); ok {
		if st, ok := m.Moments(); ok {
			return &st, nil
		}
	}
	n := seq.Len()
	nb := (n + MomentBlock - 1) / MomentBlock
	parts := make([]SumStats, nb)
	errs := make([]error, nb)
	bufs := make([][]float64, max(1, workers))
	err := ParallelFor(ctx, nb, workers, func(w, b int) {
		lo := b * MomentBlock
		hi := min(n, lo+MomentBlock)
		bufs[w] = seq.AppendRange(bufs[w][:0], lo, hi)
		if err := validateProbs(bufs[w]); err != nil || len(bufs[w]) != hi-lo {
			errs[b] = fmt.Errorf("range [%d, %d) read %d values: %w", lo, hi, len(bufs[w]), cmp.Or(err, ErrInvalidParameter))
			return
		}
		parts[b].AddUnits(bufs[w])
	})
	if err != nil {
		return nil, err
	}
	var st SumStats
	for b := range parts {
		if errs[b] != nil {
			return nil, errs[b]
		}
		st.Merge(&parts[b])
	}
	return &st, nil
}

// SumStats accumulates the normal tier's sufficient statistics for a sum of
// independent weighted Bernoulli terms w·X, X ~ Bernoulli(p): mean, variance,
// the Berry–Esseen third-moment numerator, and the Hoeffding squared-span
// total. Partials summed in parallel and merged in a fixed order (Merge) are
// bit-identical for every worker count. The zero value is empty.
type SumStats struct {
	n                  int64
	mu, vr, rho, spans Accumulator
}

// Add incorporates one term with weight w and success probability p. Each
// product that feeds a sum is rounded explicitly, float64(x*y), which the Go
// spec says keeps it from being fused into the sum's addition: the sums then
// have the same bits on every architecture, and AddUnits stays Add(1, p) bit
// for bit.
func (s *SumStats) Add(w, p float64) {
	s.n++
	q := float64(p * (1 - p))
	aw := math.Abs(w)
	s.mu.Add(float64(w * p))
	s.vr.Add(float64(w * w * q))
	s.rho.Add(float64(aw * aw * aw * q * (float64(p*p) + float64((1-p)*(1-p)))))
	s.spans.Add(float64(w * w))
}

// AddUnits adds one unit-weight term per p in ps, in order, with Add(1, p)'s
// operations, so the sums are bit-identical to Add's term by term; the
// running sums stay in registers. It is the moment blocks' kernel.
//
//lint:hotpath
func (s *SumStats) AddUnits(ps []float64) {
	mu, vr, rho, spans := s.mu, s.vr, s.rho, s.spans
	for _, p := range ps {
		q := float64(p * (1 - p))
		mu = mu.plus(p)
		vr = vr.plus(q)
		rho = rho.plus(float64(q * (float64(p*p) + float64((1-p)*(1-p)))))
		spans = spans.plus(1)
	}
	s.n += int64(len(ps))
	s.mu, s.vr, s.rho, s.spans = mu, vr, rho, spans
}

// Merge folds o's totals into s. Merging partials in a fixed order is the
// determinism contract: the compensated sums are not associative to the last
// ulp, so parallel passes must merge their partials in index order.
func (s *SumStats) Merge(o *SumStats) {
	s.n += o.n
	s.mu.Add(o.mu.Sum())
	s.vr.Add(o.vr.Sum())
	s.rho.Add(o.rho.Sum())
	s.spans.Add(o.spans.Sum())
}

// N returns the number of terms added.
func (s *SumStats) N() int64 { return s.n }

// Mean returns the accumulated E[S].
func (s *SumStats) Mean() float64 { return s.mu.Sum() }

// Variance returns the accumulated Var[S].
func (s *SumStats) Variance() float64 { return s.vr.Sum() }

// SumSquaredSpans returns the Hoeffding squared-span total, taking each
// term's range as [0, w] (valid for any Bernoulli term, if loose for
// near-deterministic ones).
func (s *SumStats) SumSquaredSpans() float64 { return s.spans.Sum() }

// berryEsseenC is the universal constant of the Berry–Esseen theorem for
// sums of independent, non-identically distributed summands. Shevtsova
// (2010) proves C <= 0.5600 in that setting, so 0.56 keeps the bound
// certified; TestBerryEsseenBoundCertifiesPoissonBinomial and its weighted
// variant check it against exact tails.
const berryEsseenC = 0.56

// BerryEsseen returns the certified uniform bound on the normal
// approximation error of the accumulated sum S = Σ w_i X_i:
//
//	sup_x |P[S <= x] - Phi((x - mu)/sigma)| <= C * Σ rho_i / sigma^3
//
// with rho_i = E|w_i(X_i - p_i)|^3 = |w_i|^3 p_i(1-p_i)(p_i^2 + (1-p_i)^2)
// and sigma^2 = Σ w_i^2 p_i(1-p_i). It is clamped to the trivial bound 1,
// which is also its value when sigma = 0.
func (s *SumStats) BerryEsseen() float64 {
	sigma2 := s.Variance()
	if sigma2 <= 0 {
		return 1
	}
	b := berryEsseenC * s.rho.Sum() / (sigma2 * math.Sqrt(sigma2))
	if b > 1 || math.IsNaN(b) {
		return 1
	}
	return b
}

// certifySlack widens the normal tier's band by a fixed numerical margin.
// The Berry–Esseen and Hoeffding enclosures are exact statements about the
// true probability, but the values they are checked against — the exact DP,
// the FFT evaluator — are finite-precision computations with their own
// rounding (observed ~1e-16 at test sizes; the metamorphic containment
// tests compare computed values, not reals). 1e-12 covers that rounding
// with orders of headroom while staying far below any statistically
// meaningful width.
const certifySlack = 1e-12

// CertifyMajority builds the normal tier's certified interval for
// q = P[S > threshold] from streamed sufficient statistics. It requires
// integer weights, as every caller sums: S is then integer-valued, so with
// k = ⌊threshold⌋, q = P[S > x] for every x in [k, k+1). The certified band
// is the intersection of two rigorous enclosures of q:
//
//   - Berry–Esseen on the lattice: |P[S > x] - SF(x)| <= BerryEsseen() for
//     every x, and SF falls across [k, k+1), so
//     SF(k) - BerryEsseen() <= q <= SF(k+1) + BerryEsseen();
//   - Hoeffding, one-sided on whichever tail the threshold sits in:
//     q <= exp(-2t²/Σspan²) when t = threshold - mean >= 0, and
//     1 - q <= exp(-2t²/Σspan²) when t < 0.
//
// The point estimate is the continuity-corrected SF(k + 1/2), which lies
// between SF(k+1) and SF(k), clamped into the certified band. HalfWidth
// covers the whole band, so the interval remains rigorous whatever the
// point, and it is at most BerryEsseen() plus the certify slack. A
// zero-variance sum is deterministic and certifies with half-width 0.
func CertifyMajority(s *SumStats, threshold float64) CertifiedInterval {
	mu := s.Mean()
	sigma2 := s.Variance()
	dist := Normal{Mu: mu, Sigma: math.Sqrt(sigma2)}
	if sigma2 <= 0 {
		// Every term is deterministic: S = mu always, and the degenerate SF
		// is exactly P[S > threshold].
		return CertifiedInterval{Point: dist.SF(threshold), HalfWidth: 0, Tier: TierNormal}
	}
	be := s.BerryEsseen()
	k := math.Floor(threshold)
	lo := clamp01(dist.SF(k) - be)
	hi := clamp01(dist.SF(k+1) + be)
	if sss := s.SumSquaredSpans(); sss > 0 {
		t := threshold - mu
		h := math.Exp(-2 * t * t / sss)
		if t >= 0 {
			if h < hi {
				hi = h
			}
		} else if 1-h > lo {
			lo = 1 - h
		}
	}
	lo = clamp01(lo - certifySlack)
	hi = clamp01(hi + certifySlack)
	if hi < lo {
		hi = lo
	}
	point := clamp01(dist.SF(k + 0.5))
	if point < lo {
		point = lo
	} else if point > hi {
		point = hi
	}
	return CertifiedInterval{Point: point, HalfWidth: math.Max(point-lo, hi-point), Tier: TierNormal}
}

// ClassifyExactTier reports which kernel rung the cost model runs an n-voter
// Poisson-binomial evaluation on: TierExact when the root of the D&C tree
// stays on the quadratic DP leaf (the whole evaluation is one exact DP, no
// FFT anywhere, so the result carries zero approximation error), TierFFT
// when the root splits and at least the final merge goes through FFT
// convolution. The rule is the engine's own leaf test at the unit-weight
// root, which splits at n/2 (see dcSplit), so the label always matches what
// the kernel actually does.
func ClassifyExactTier(n int) Tier {
	if dcLeaf(n, n, int64(n-n/2)*int64(n/2)) {
		return TierExact
	}
	return TierFFT
}

// ParallelWorkerBudget chooses the fork-join worker budget for an n-voter
// kernel evaluation from the cost model: 1 when the root stays a DP leaf
// (nothing to fork), otherwise roughly one worker per forkable subtree
// (parForkMinWeight support each), capped at max. The choice tunes only
// scheduling — the fork-join tree is bit-identical for every workers
// value — so routing every caller through it makes the D&C tree parallel
// by default without risking any table.
func ParallelWorkerBudget(n, max int) int {
	if max < 1 {
		max = 1
	}
	if ClassifyExactTier(n) == TierExact {
		return 1
	}
	w := n / parForkMinWeight
	if w < 1 {
		w = 1
	}
	if w > max {
		w = max
	}
	return w
}

// ladderEscalationN is the size below which LadderCostEstimate assumes the
// ladder escalates past the normal tier: the certified half-width shrinks
// like 1/sqrt(n), so small instances are the ones whose budgets force the
// kernel tiers.
const ladderEscalationN = 1 << 12

// exactTierCost prices the kernel tiers in DP units: the quadratic DP below
// the root crossover, the FFT D&C's padded O(m log^2 m) unit count above it.
func exactTierCost(n int) int64 {
	if ClassifyExactTier(n) == TierExact {
		return PoissonBinomialDPCost(n)
	}
	lg := int64(ceilLog2(n + 1))
	m := int64(1) << lg
	return fftUnitCost * m * lg * lg
}

// LadderCostEstimate prices an n-voter ladder majority query in DP units for
// admission control: the O(n) streaming moments pass always runs; the kernel
// tier's cost is added when the query is small enough that a realistic error
// budget forces escalation (see ladderEscalationN), or when errorBudget <= 0
// demands the kernel tiers outright. Like EstimateCost in the serving layer,
// this is a shed threshold, not an exact prediction.
func LadderCostEstimate(n int, errorBudget float64) int64 {
	if n <= 0 {
		return 0
	}
	moments := int64(n)
	if errorBudget > 0 && n > ladderEscalationN {
		return moments
	}
	return moments + exactTierCost(n)
}

// maxExactN caps the size the ladder's kernel tiers will materialise.
// Beyond it the ladder stays on the streaming normal tier, which is what
// keeps million-voter queries out of O(n^2) memory-time space.
const maxExactN = 1 << 17

// LadderOptions tunes LadderMajority. The zero value auto-selects with no
// error budget (most precise affordable tier) and the full GOMAXPROCS
// worker budget.
type LadderOptions struct {
	// ErrorBudget is the maximum acceptable certified half-width. > 0 lets
	// the ladder stop at the cheapest tier within budget; <= 0 demands the
	// most precise tier maxExactN affords.
	ErrorBudget float64
	// Workers caps the normal tier's block workers and the kernel tiers'
	// fork-join budget (0 = GOMAXPROCS). The kernels' effective budget is
	// cost-model-chosen via ParallelWorkerBudget; neither affects any result.
	Workers int
	// Force pins a tier, bypassing selection: TierExact runs the quadratic
	// DP whatever n (the metamorphic reference), TierFFT the D&C evaluator,
	// TierNormal the streaming pass. TierAuto (zero) selects.
	Force Tier
}

func (o LadderOptions) withDefaults() LadderOptions {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Certify is the ladder's one tier rule, shared by every caller that scores
// a probability under an error budget. normal computes the quantity's
// certified normal tier (a SumStats moments pass through CertifyMajority);
// exact runs the caller's exact evaluator, and is nil when the caller cannot
// afford it. With errorBudget > 0 the normal tier is tried first and kept if
// its half-width fits the budget; otherwise, and always when errorBudget <= 0,
// the exact evaluator answers when there is one. normal runs at most once,
// and not at all when errorBudget <= 0 and exact is non-nil. When no tier
// meets the budget the tightest interval computed is returned with
// ErrBudgetInfeasible: the exact one if exact ran, else the normal one. The
// interval is still rigorous, so degrading callers can serve it.
func Certify(errorBudget float64, normal, exact func() (CertifiedInterval, error)) (CertifiedInterval, error) {
	if errorBudget > 0 || exact == nil {
		ci, err := normal()
		if err != nil {
			return CertifiedInterval{}, err
		}
		if errorBudget > 0 && ci.HalfWidth <= errorBudget {
			return ci, nil
		}
		if exact == nil {
			return ci, ErrBudgetInfeasible
		}
	}
	ci, err := exact()
	if err != nil {
		return CertifiedInterval{}, err
	}
	if errorBudget > 0 && ci.HalfWidth > errorBudget {
		return ci, ErrBudgetInfeasible
	}
	return ci, nil
}

// KernelInterval labels the exact-kernel majority mass of an n-voter
// unit-weight sum with the tier the cost model runs it on
// (ClassifyExactTier) and that tier's certified half-width.
func KernelInterval(n int, point float64) CertifiedInterval {
	ci := CertifiedInterval{Point: point, Tier: ClassifyExactTier(n)}
	if ci.Tier == TierFFT {
		ci.HalfWidth = FFTTierErrorBudget
	}
	return ci
}

// LadderMajority evaluates q = P[sum > n/2] — the majority mass of the
// Poisson binomial over seq's probabilities — on the cheapest ladder tier
// whose certified half-width fits opts.ErrorBudget (Certify's rule). The
// normal tier reads seq one MomentBlock per worker at a time (UnitMoments);
// the kernel tiers materialise the vector (sorted ascending, the kernels'
// canonical order) only when selected and only up to maxExactN voters.
// When no tier satisfies the budget the tightest certified interval is
// returned along with ErrBudgetInfeasible, so degrading callers still get a
// sound answer.
func LadderMajority(ctx context.Context, seq Seq, opts LadderOptions) (CertifiedInterval, error) {
	n := seq.Len()
	if n <= 0 {
		return CertifiedInterval{}, fmt.Errorf("%w: empty electorate", ErrInvalidParameter)
	}
	if err := ctx.Err(); err != nil {
		return CertifiedInterval{}, err
	}
	opts = opts.withDefaults()
	normal := func() (CertifiedInterval, error) {
		st, err := UnitMoments(ctx, seq, opts.Workers)
		if err != nil {
			return CertifiedInterval{}, err
		}
		return CertifyMajority(st, float64(n/2)), nil
	}
	kernel := func() (float64, error) {
		ps, err := materialize(ctx, seq)
		if err != nil {
			return 0, err
		}
		return KernelMajority(ctx, ps, opts.Workers)
	}

	switch opts.Force {
	case TierExact:
		ps, err := materialize(ctx, seq)
		if err != nil {
			return CertifiedInterval{}, err
		}
		sort.Float64s(ps)
		f, err := PMFNaive(appendUnitVoters(nil, ps))
		if err != nil {
			return CertifiedInterval{}, err
		}
		return CertifiedInterval{Point: MajorityMass(f), HalfWidth: 0, Tier: TierExact}, nil
	case TierFFT:
		point, err := kernel()
		if err != nil {
			return CertifiedInterval{}, err
		}
		return CertifiedInterval{Point: point, HalfWidth: FFTTierErrorBudget, Tier: TierFFT}, nil
	case TierNormal:
		return normal()
	}

	var exact func() (CertifiedInterval, error)
	if n <= maxExactN {
		exact = func() (CertifiedInterval, error) {
			point, err := kernel()
			if err != nil {
				return CertifiedInterval{}, err
			}
			return KernelInterval(n, point), nil
		}
	}
	return Certify(opts.ErrorBudget, normal, exact)
}

// materialize collects seq into one validated vector. The kernel tiers
// sort it ascending — the canonical competency order the exact kernels (and
// the election engine's P^D path) evaluate in — so a ladder kernel result
// is bit-identical whatever sequence produced the values.
func materialize(ctx context.Context, seq Seq) ([]float64, error) {
	n := seq.Len()
	ps := seq.AppendRange(make([]float64, 0, n), 0, n)
	if len(ps) != n {
		return nil, fmt.Errorf("%w: range read %d values for Len() = %d", ErrInvalidParameter, len(ps), n)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := validateProbs(ps); err != nil {
		return nil, err
	}
	return ps, nil
}

// KernelMajority returns the majority mass P[sum > n/2] of the Poisson
// binomial over ps on the exact kernel. It sorts ps ascending in place, the
// canonical order, unless one O(n) check finds it ascending already (the
// election engine passes its instances' sorted competencies), and runs the
// engine (DP leaf or FFT D&C, as the cost model decides) on a pooled
// workspace with a fork budget of ParallelWorkerBudget(len(ps), workers).
// The result is bit-identical for every workers value. With workers <= 1
// nothing forks and ctx is never consulted, so it may be nil.
//
// It is the one exact P^D kernel, with two callers: LadderMajority's kernel
// tiers, and the election engine's exact P^D (election.DirectProbabilityExact
// and the Plan's exact branch).
func KernelMajority(ctx context.Context, ps []float64, workers int) (float64, error) {
	if !sort.Float64sAreSorted(ps) {
		sort.Float64s(ps)
	}
	if err := validateProbs(ps); err != nil {
		return 0, err
	}
	ws := getWorkspace()
	defer putWorkspace(ws)
	f, err := ws.pmf(ctx, ws.UnitVoters(ps), ParallelWorkerBudget(len(ps), workers))
	if err != nil {
		return 0, err
	}
	return MajorityMass(f), nil
}
