package prob

import (
	"sync"
)

// Workspace owns the scratch memory behind the exact convolution kernels:
// the arena that divide-and-conquer PMF evaluation builds partial
// distributions in, the FFT buffers and twiddle tables, and the reusable
// voter/key buffers that let callers construct distributions without
// per-call allocation.
//
// Ownership rules (see DESIGN.md "Performance kernels"):
//
//   - a Workspace is NOT safe for concurrent use; give each goroutine its
//     own (EvaluateMechanism hands one to every replication worker);
//   - every slice returned by a Workspace method (PMFWS results,
//     VoterBuffer, KeyBuffer) or by a borrowing constructor remains valid
//     only until the next call on the same Workspace;
//   - a Workspace never influences results, only allocation: for any input,
//     the kernels write the same bytes through a fresh or a reused one.
//
// The zero value is ready to use; NewWorkspace is provided for symmetry.
type Workspace struct {
	arena []float64
	off   int

	fftRe, fftIm []float64

	voters []WeightedVoter
	aux    []WeightedVoter
	units  []WeightedVoter
	counts []int
	key    []byte
	pw     []int64

	pb PoissonBinomial
	wm WeightedMajority
}

// NewWorkspace returns an empty workspace. Buffers grow on first use and
// are retained for reuse.
func NewWorkspace() *Workspace {
	return &Workspace{}
}

// wsPool backs the non-workspace entry points (PMF, ProbAtLeast, ...), so
// even legacy callers reuse kernels' scratch instead of reallocating it.
// Pooling affects allocation only, never results.
var wsPool = sync.Pool{New: func() any { return NewWorkspace() }}

func getWorkspace() *Workspace  { return wsPool.Get().(*Workspace) }
func putWorkspace(w *Workspace) { wsPool.Put(w) }

// reset begins a new kernel invocation: all previously returned arena
// slices are invalidated.
func (ws *Workspace) reset(need int) {
	cWorkspaceResets.Inc()
	ws.off = 0
	if cap(ws.arena) < need {
		cArenaGrows.Inc()
		ws.arena = make([]float64, need)
	}
	ws.arena = ws.arena[:cap(ws.arena)]
}

// alloc carves n float64s out of the arena. If the arena estimate was too
// small (it is sized generously at reset) the slice falls back to a fresh
// allocation, which is always correct because arena slices are never
// reallocated while borrowed.
func (ws *Workspace) alloc(n int) []float64 {
	if ws.off+n > len(ws.arena) {
		cArenaFallbacks.Inc()
		return make([]float64, n)
	}
	s := ws.arena[ws.off : ws.off+n : ws.off+n]
	ws.off += n
	return s
}

// ensureFFT sizes the FFT scratch for transforms of length n.
func (ws *Workspace) ensureFFT(n int) {
	if cap(ws.fftRe) < n {
		ws.fftRe = make([]float64, n)
		ws.fftIm = make([]float64, n)
	}
}

// VoterBuffer returns the workspace's reusable voter slice, emptied, with
// capacity for at least n voters. Callers append voters and typically pass
// the result to Workspace.WeightedMajority; the buffer is invalidated by
// the next VoterBuffer call.
func (ws *Workspace) VoterBuffer(n int) []WeightedVoter {
	if cap(ws.voters) < n {
		ws.voters = make([]WeightedVoter, 0, n)
	}
	return ws.voters[:0]
}

// SortVotersByWeight stably reorders voters ascending by weight with a
// counting sort over ws scratch — O(len + maxW) with no comparisons.
// Callers that append voters in ascending-p order obtain the canonical
// (weight, p) ordering of the kernel cache keys. maxW must be >= every
// weight. The result aliases ws memory and is invalidated by the next
// SortVotersByWeight call; the input slice is left untouched.
func (ws *Workspace) SortVotersByWeight(voters []WeightedVoter, maxW int) []WeightedVoter {
	if cap(ws.counts) < maxW+1 {
		ws.counts = make([]int, maxW+1)
	}
	counts := ws.counts[:maxW+1]
	for i := range counts {
		counts[i] = 0
	}
	for _, v := range voters {
		counts[v.Weight]++
	}
	pos := 0
	for w, c := range counts {
		counts[w] = pos
		pos += c
	}
	if cap(ws.aux) < len(voters) {
		ws.aux = make([]WeightedVoter, len(voters))
	}
	out := ws.aux[:len(voters)]
	for _, v := range voters {
		out[counts[v.Weight]] = v
		counts[v.Weight]++
	}
	return out
}

// unitVoters refills the workspace's unit-voter buffer from ps. The buffer
// is private to the Poisson-binomial entry points, so it never collides
// with voters a caller built in VoterBuffer or SortVotersByWeight.
func (ws *Workspace) unitVoters(ps []float64) []WeightedVoter {
	ws.units = appendUnitVoters(ws.units[:0], ps)
	return ws.units
}

// KeyBuffer returns the workspace's reusable byte scratch, emptied, with
// capacity for at least n bytes. It exists for callers that build cache
// keys around kernel calls (internal/election's resolution-score cache)
// without allocating per replication.
func (ws *Workspace) KeyBuffer(n int) []byte {
	if cap(ws.key) < n {
		ws.key = make([]byte, 0, n)
	}
	return ws.key[:0]
}

// PoissonBinomial validates ps and returns a workspace-owned distribution
// that borrows ps (no copy). The caller must not mutate ps while the
// distribution is in use; the returned pointer is invalidated by the next
// PoissonBinomial call on the same workspace.
func (ws *Workspace) PoissonBinomial(ps []float64) (*PoissonBinomial, error) {
	if err := validateProbs(ps); err != nil {
		return nil, err
	}
	ws.pb.ps = ps
	return &ws.pb, nil
}

// WeightedMajority validates voters and returns a workspace-owned
// distribution that borrows the slice (no copy). The caller must not
// mutate voters while the distribution is in use; the returned pointer is
// invalidated by the next WeightedMajority call on the same workspace.
func (ws *Workspace) WeightedMajority(voters []WeightedVoter) (*WeightedMajority, error) {
	total, err := validateVoters(voters)
	if err != nil {
		return nil, err
	}
	ws.wm.voters = voters
	ws.wm.total = total
	return &ws.wm, nil
}
