package localsim

import (
	"context"
	"slices"

	"liquid/internal/core"
	"liquid/internal/rng"
)

// DefaultSuspectAfter is the default liveness timeout (in rounds, scaled by
// maxDelay+1 at the runner): a node whose oldest unacknowledged data
// message is this old suspects its delegate has crashed or is partitioned
// away, reclaims all unacknowledged weight, and falls back to voting
// directly. Under pure loss q the probability of a false suspicion per
// message is (1-(1-q)^2)^DefaultSuspectAfter — about 2e-4 even at q = 0.5 —
// and a false fallback is safe: it only moves weight, never loses it.
const DefaultSuspectAfter = 30

// reclaimEntry remembers a payload the node reclaimed at fallback time so a
// late acknowledgement (or the post-run reconciliation sweep) can undo the
// double count if the recipient had in fact absorbed it.
type reclaimEntry struct {
	to      int
	payload int
}

// faultReliableNode is the crash-tolerant variant of reliableNode: the same
// ack-based retransmission convergecast, extended with a liveness timeout.
// Each outbox entry remembers when it was enqueued; when the oldest entry's
// age reaches suspectAfter rounds the node gives up on its delegate,
// reclaims every unacknowledged payload into its own weight, and becomes a
// sink (direct vote). Late acks for reclaimed sequence numbers subtract the
// payload again, and the runner reconciles any remaining ambiguity from the
// receivers' dedup sets after quiescence.
type faultReliableNode struct {
	decide       DecisionRule
	suspectAfter int

	delegate int
	weight   int
	fellBack bool

	nextSeq   int
	outbox    map[int]Message // unacked data messages by seq
	enqueued  map[int]int     // seq -> round the message was first enqueued
	reclaimed map[int]reclaimEntry
	seen      map[[2]int]struct{} // (sender, seq) pairs already absorbed
}

var _ Node = (*faultReliableNode)(nil)
var _ Persistent = (*faultReliableNode)(nil)

// Init implements Node.
func (r *faultReliableNode) Init(ctx *NodeContext) []Message {
	r.weight = 1
	r.outbox = make(map[int]Message)
	r.enqueued = make(map[int]int)
	r.reclaimed = make(map[int]reclaimEntry)
	r.seen = make(map[[2]int]struct{})
	r.delegate = r.decide(ctx)
	if r.delegate == core.NoDelegate {
		return nil
	}
	r.weight = 0
	return []Message{r.enqueue(ctx.ID, 1, 0)}
}

// enqueue registers a new data message in the outbox and returns it.
func (r *faultReliableNode) enqueue(from, amount, round int) Message {
	r.nextSeq++
	m := Message{From: from, To: r.delegate, Kind: KindData, Payload: amount, Seq: r.nextSeq}
	r.outbox[m.Seq] = m
	r.enqueued[m.Seq] = round
	return m
}

// sink reports whether the node currently accumulates weight instead of
// forwarding it.
func (r *faultReliableNode) sink() bool { return r.delegate == core.NoDelegate || r.fellBack }

// Round implements Node.
func (r *faultReliableNode) Round(round int, inbox []Message, ctx *NodeContext) []Message {
	var out []Message
	received := 0
	for _, m := range inbox {
		switch m.Kind {
		case KindAck:
			if _, live := r.outbox[m.Seq]; live {
				delete(r.outbox, m.Seq)
				delete(r.enqueued, m.Seq)
				continue
			}
			if rec, ok := r.reclaimed[m.Seq]; ok {
				// The delegate did absorb this payload before we gave up on
				// it: undo the reclaim so the unit is not counted twice.
				r.weight -= rec.payload
				delete(r.reclaimed, m.Seq)
			}
		case KindData:
			// Always ack, even duplicates (the previous ack may have been
			// lost).
			out = append(out, Message{From: ctx.ID, To: m.From, Kind: KindAck, Seq: m.Seq})
			key := [2]int{m.From, m.Seq}
			if _, dup := r.seen[key]; dup {
				continue
			}
			r.seen[key] = struct{}{}
			received += m.Payload
		}
	}
	if received > 0 {
		if r.sink() {
			r.weight += received
		} else {
			r.enqueue(ctx.ID, received, round) // forwarded below with the resends
		}
	}
	// Liveness timeout: if the oldest unacked message has waited
	// suspectAfter rounds, the delegate is presumed dead or unreachable.
	// Reclaim every unacked payload and vote directly from now on.
	if !r.sink() && len(r.outbox) > 0 {
		oldest := round + 1
		for _, at := range r.enqueued {
			if at < oldest {
				oldest = at
			}
		}
		if round-oldest >= r.suspectAfter {
			for seq, m := range r.outbox {
				r.weight += m.Payload
				r.reclaimed[seq] = reclaimEntry{to: m.To, payload: m.Payload}
			}
			clear(r.outbox)
			clear(r.enqueued)
			r.fellBack = true
		}
	}
	// Retransmit everything unacked (including any newly enqueued data), in
	// seq order: emission order decides which loss-stream draw hits which
	// message, so ranging the map directly would make drop patterns (and
	// convergence round counts) vary run to run.
	seqs := make([]int, 0, len(r.outbox))
	for seq := range r.outbox {
		seqs = append(seqs, seq)
	}
	slices.Sort(seqs)
	for _, seq := range seqs {
		out = append(out, r.outbox[seq])
	}
	return out
}

// Busy implements Persistent.
func (r *faultReliableNode) Busy() bool { return len(r.outbox) > 0 }

// ReliableFaultOptions configures RunReliableDelegationFaulty.
type ReliableFaultOptions struct {
	// LossRate drops each message independently with this probability.
	LossRate float64
	// MaxDelay (>= 0) makes delivery take between 1 and 1+MaxDelay rounds.
	MaxDelay int
	// Faults is the scheduled fault injector (crashes, partitions,
	// duplication, reordering); nil injects nothing.
	Faults FaultInjector
	// SuspectAfter overrides the liveness timeout in rounds; 0 means
	// DefaultSuspectAfter * (MaxDelay + 1).
	SuspectAfter int
}

// FaultReport is the outcome of a convergecast under injected faults, with
// exact weight accounting: every one of the n weight units is either held
// by a live node (LiveTotal) or trapped at a crashed one (TrappedTotal),
// and LiveTotal + TrappedTotal == n always.
type FaultReport struct {
	// Delegation holds the delegation decisions still in force at the end:
	// fallen-back nodes appear as direct voters.
	Delegation *core.DelegationGraph
	// Weights[v] is the weight node v holds after reconciliation (0 for
	// every non-sink and for most crashed nodes).
	Weights []int
	// Crashed[v] reports whether v was crash-stopped during the run.
	Crashed []bool
	// FellBack lists the live nodes that timed out on their delegate and
	// reverted to a direct vote, ascending.
	FellBack []int
	// LiveTotal is the weight held by live nodes; TrappedTotal is the
	// weight stranded at crashed nodes (their absorbed weight plus
	// in-custody payloads that were never absorbed downstream).
	LiveTotal    int
	TrappedTotal int
	// Reconciled counts weight units whose double count (sender reclaimed,
	// receiver absorbed) was resolved by the post-quiescence sweep rather
	// than by a late ack.
	Reconciled int

	Rounds     int
	Messages   int
	Dropped    int
	CutDrops   int
	CrashDrops int
	Duplicated int
}

// RunReliableDelegationFaulty executes the crash-tolerant delegation
// convergecast under the given fault options. It terminates for any plan
// with crash rate < 1 and loss rate < 1: nodes that cannot reach their
// delegate fall back to direct votes after a liveness timeout, so
// quiescence is always reached (within the round budget). The returned
// report satisfies LiveTotal + TrappedTotal == n exactly.
//
// With zero faults (no injector, LossRate 0, MaxDelay 0) the resulting
// delegation and weights match RunReliableDelegation bit for bit: the
// per-node decision streams are derived identically.
func RunReliableDelegationFaulty(ctx context.Context, in *core.Instance, alpha float64, decide DecisionRule, seed uint64, opts ReliableFaultOptions) (*FaultReport, error) {
	if !(alpha >= 0) {
		return nil, violationf(ViolationBadParameter, "negative or NaN alpha %v", alpha)
	}
	if decide == nil {
		return nil, violationf(ViolationBadParameter, "nil decision rule")
	}
	suspectAfter := opts.SuspectAfter
	if suspectAfter <= 0 {
		suspectAfter = DefaultSuspectAfter * (opts.MaxDelay + 1)
	}
	n := in.N()
	root := rng.New(seed)
	contexts := approvalContexts(in, alpha, root)
	nodes := make([]Node, n)
	rnodes := make([]*faultReliableNode, n)
	for v := range nodes {
		rnodes[v] = &faultReliableNode{decide: decide, suspectAfter: suspectAfter}
		nodes[v] = rnodes[v]
	}
	nw, err := NewNetwork(contexts, nodes)
	if err != nil {
		return nil, err
	}
	if err := nw.SetLoss(opts.LossRate, root.DeriveString("loss")); err != nil {
		return nil, err
	}
	if err := nw.SetDelay(opts.MaxDelay, root.DeriveString("delay")); err != nil {
		return nil, err
	}
	if err := nw.SetFaults(opts.Faults); err != nil {
		return nil, err
	}
	// Each hop needs ~(1+maxDelay)/(1-q)^2 expected rounds for data+ack,
	// and a fallback takes suspectAfter rounds; give generous headroom over
	// the worst chain length.
	budget := (200+40*n)*(opts.MaxDelay+1) + (n+1)*suspectAfter
	if err := nw.Run(ctx, budget); err != nil {
		return nil, err
	}

	report := &FaultReport{
		Delegation: core.NewDelegationGraph(n),
		Weights:    make([]int, n),
		Crashed:    make([]bool, n),
		Rounds:     nw.Rounds(),
		Messages:   nw.Messages(),
		Dropped:    nw.Dropped(),
		CutDrops:   nw.CutDrops(),
		CrashDrops: nw.CrashDrops(),
		Duplicated: nw.Duplicated(),
	}
	// Crash-stop is monotone, so probing the quiescence instant (the same
	// round index the final quiescence check used) identifies every node
	// that was down at any point during the run — including one whose
	// crash round coincides with quiescence, which is exactly what allowed
	// the network to quiesce despite its non-empty outbox.
	lastRound := nw.Rounds()
	for v := range rnodes {
		report.Crashed[v] = nw.crashed(v, lastRound)
	}

	// Reconciliation sweep: a reclaim double-counts a unit exactly when the
	// recipient had absorbed the payload (its dedup set has the key) but
	// the ack never made it back — the classic two-generals ambiguity,
	// which no in-protocol rule can settle. The runner has the global view,
	// so it settles it here, making conservation exact.
	for v, rn := range rnodes {
		seqs := make([]int, 0, len(rn.reclaimed))
		for seq := range rn.reclaimed {
			seqs = append(seqs, seq)
		}
		slices.Sort(seqs)
		for _, seq := range seqs {
			rec := rn.reclaimed[seq]
			if _, absorbed := rnodes[rec.to].seen[[2]int{v, seq}]; absorbed {
				rn.weight -= rec.payload
				if !report.Crashed[v] {
					report.Reconciled += rec.payload
				}
				delete(rn.reclaimed, seq)
			}
		}
	}

	for v, rn := range rnodes {
		if report.Crashed[v] {
			// Trapped custody: the node's absorbed weight plus every
			// in-flight payload that no recipient ever absorbed.
			trapped := rn.weight
			for seq, m := range rn.outbox {
				if _, absorbed := rnodes[m.To].seen[[2]int{v, seq}]; !absorbed {
					trapped += m.Payload
				}
			}
			report.TrappedTotal += trapped
			continue
		}
		if len(rn.outbox) != 0 {
			return nil, violationf(ViolationNoQuiescence, "live node %d still has %d unacked messages", v, len(rn.outbox))
		}
		report.Weights[v] = rn.weight
		report.LiveTotal += rn.weight
		if rn.fellBack {
			report.FellBack = append(report.FellBack, v)
		}
		if rn.delegate != core.NoDelegate && !rn.fellBack {
			if err := report.Delegation.SetDelegate(v, rn.delegate); err != nil {
				return nil, err
			}
		}
	}
	return report, nil
}
