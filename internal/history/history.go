// Package history models where approval sets come from in practice: voters
// observe each other's track records on past issues with known outcomes and
// approve neighbours whose observed accuracy exceeds their own by the
// margin alpha. As the history grows, estimated approvals converge to the
// true approval sets J(i) of the paper's model; with short histories,
// mechanisms run on noisy approvals, and the library measures how much gain
// that costs.
package history

import (
	"errors"
	"fmt"

	"liquid/internal/core"
	"liquid/internal/rng"
)

// ErrInvalidHistory reports invalid track-record parameters.
var ErrInvalidHistory = errors.New("history: invalid track record")

// TrackRecord holds each voter's score on past binary issues with known
// ground truth. Two observation models share the type:
//
//   - uniform participation (Simulate): every voter observed on all T
//     issues; Counts is nil and accuracies smooth over T.
//   - partial participation (NewTrackRecord + ObserveIssue): voters
//     observed on per-voter Counts of issues, so one issue touches only
//     its participants — the sparse-delta regime the incremental
//     evaluation path (Replay) feeds through Plan.ApplyDelta.
type TrackRecord struct {
	T      int
	Scores []int
	// Counts is the per-voter observation count under partial
	// participation, nil under the uniform model.
	Counts []int
}

// NewTrackRecord returns an empty partial-participation record over n
// voters (all accuracies start at the Laplace prior 1/2).
func NewTrackRecord(n int) *TrackRecord {
	return &TrackRecord{Scores: make([]int, n), Counts: make([]int, n)}
}

// ObserveIssue simulates one issue observed by participants only: each
// participant is correct with its true competency, and only participants'
// accuracies change. Returns the participants whose observation count
// moved (the input slice), for callers that turn the issue into
// competency deltas.
func (tr *TrackRecord) ObserveIssue(in *core.Instance, participants []int, s *rng.Stream) error {
	if tr.Counts == nil {
		return fmt.Errorf("%w: ObserveIssue needs a partial-participation record (NewTrackRecord)", ErrInvalidHistory)
	}
	if len(tr.Scores) != in.N() {
		return fmt.Errorf("%w: %d scores for %d voters", ErrInvalidHistory, len(tr.Scores), in.N())
	}
	// Validate every participant before the first draw, so a bad id leaves
	// the record and the stream as they were.
	for _, v := range participants {
		if v < 0 || v >= in.N() {
			return fmt.Errorf("%w: participant %d out of range", ErrInvalidHistory, v)
		}
	}
	for _, v := range participants {
		tr.Counts[v]++
		if s.Bernoulli(in.Competency(v)) {
			tr.Scores[v]++
		}
	}
	tr.T++
	return nil
}

// Simulate draws a track record: on each of t issues every voter is
// independently correct with its competency.
//
// The draw order is a contract: issues one after another, and within an
// issue one s.Bernoulli-equivalent draw per voter with p in (0, 1), in
// ascending id. A voter with p >= 1 scores every issue and one with p <= 0
// none, without a draw. Each draw is decided on its rng.Threshold.
func Simulate(in *core.Instance, t int, s *rng.Stream) (*TrackRecord, error) {
	if t < 1 {
		return nil, fmt.Errorf("%w: history length %d", ErrInvalidHistory, t)
	}
	tr := &TrackRecord{T: t, Scores: make([]int, in.N())}
	drawn := make([]int, 0, in.N())
	thr := make([]uint64, 0, in.N())
	for v := range tr.Scores {
		switch p := in.Competency(v); {
		case p >= 1:
			tr.Scores[v] = t
		case p > 0:
			drawn = append(drawn, v)
			thr = append(thr, rng.Threshold(p))
		}
	}
	hits := make([]uint64, len(thr))
	src := s.Source()
	for range t {
		for j, th := range thr {
			hits[j] += (src.Uint64()&(1<<53-1) - th) >> 63
		}
	}
	for j, v := range drawn {
		tr.Scores[v] = int(hits[j])
	}
	return tr, nil
}

// Accuracy returns voter v's observed accuracy with Laplace (add-one)
// smoothing, keeping estimates strictly inside (0, 1). Under partial
// participation the denominator is v's own observation count, so an issue
// v did not participate in leaves v's accuracy untouched — that locality
// is what makes per-issue competency deltas sparse.
func (tr *TrackRecord) Accuracy(v int) float64 {
	if tr.Counts != nil {
		return (float64(tr.Scores[v]) + 1) / (float64(tr.Counts[v]) + 2)
	}
	return (float64(tr.Scores[v]) + 1) / (float64(tr.T) + 2)
}

// Approves reports whether voter i would approve voter j at margin alpha
// based on observed accuracies.
func (tr *TrackRecord) Approves(i, j int, alpha float64) bool {
	return tr.Accuracy(j) >= tr.Accuracy(i)+alpha
}

// SurrogateInstance builds an instance over the same topology whose
// competencies are the observed (smoothed) accuracies. Running a mechanism
// on the surrogate realizes delegation decisions based purely on observable
// information; the resulting delegation graph is then scored against the
// true instance.
func (tr *TrackRecord) SurrogateInstance(in *core.Instance) (*core.Instance, error) {
	if len(tr.Scores) != in.N() {
		return nil, fmt.Errorf("%w: %d scores for %d voters", ErrInvalidHistory, len(tr.Scores), in.N())
	}
	p := make([]float64, in.N())
	for v := range p {
		p[v] = tr.Accuracy(v)
	}
	return core.NewInstance(in.Topology(), p)
}

// MisdelegationRate reports the fraction of delegation edges in d whose
// target is NOT truly approved at margin alpha under the real competencies
// — delegation mistakes induced by the noisy history. Returns 0 when
// nothing is delegated.
func MisdelegationRate(in *core.Instance, d *core.DelegationGraph, alpha float64) float64 {
	total, wrong := 0, 0
	for i, j := range d.Delegate {
		if j == core.NoDelegate {
			continue
		}
		total++
		if !in.Approves(i, j, alpha) {
			wrong++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(wrong) / float64(total)
}
