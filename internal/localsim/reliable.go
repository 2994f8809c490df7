package localsim

import (
	"context"
	"fmt"
	"slices"

	"liquid/internal/core"
	"liquid/internal/rng"
)

// Message kinds for the reliable convergecast protocol.
const (
	// KindData carries a weight contribution; must be acknowledged.
	KindData = iota + 1
	// KindAck acknowledges a KindData message by sequence number.
	KindAck
)

// reliableNode runs the delegation weight convergecast over lossy links
// using per-message acknowledgements: every data message carries a
// (sender-local) sequence number and is retransmitted each round until the
// matching ack arrives; receivers deduplicate by (sender, seq) and always
// re-ack, so lost acks are also tolerated. With loss rate q < 1 the
// protocol terminates with the exact lossless weights.
type reliableNode struct {
	decide DecisionRule

	delegate int
	weight   int

	nextSeq int
	outbox  map[int]Message     // unacked data messages by seq
	seen    map[[2]int]struct{} // (sender, seq) pairs already absorbed
}

var _ Node = (*reliableNode)(nil)
var _ Persistent = (*reliableNode)(nil)

// Init implements Node.
func (r *reliableNode) Init(ctx *NodeContext) []Message {
	r.weight = 1
	r.outbox = make(map[int]Message)
	r.seen = make(map[[2]int]struct{})
	r.delegate = r.decide(ctx)
	if r.delegate == core.NoDelegate {
		return nil
	}
	r.weight = 0
	return []Message{r.enqueue(ctx.ID, 1)}
}

// enqueue registers a new data message in the outbox and returns it.
func (r *reliableNode) enqueue(from, amount int) Message {
	r.nextSeq++
	m := Message{From: from, To: r.delegate, Kind: KindData, Payload: amount, Seq: r.nextSeq}
	r.outbox[m.Seq] = m
	return m
}

// Round implements Node.
func (r *reliableNode) Round(_ int, inbox []Message, ctx *NodeContext) []Message {
	var out []Message
	received := 0
	for _, m := range inbox {
		switch m.Kind {
		case KindAck:
			delete(r.outbox, m.Seq)
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
		if r.delegate == core.NoDelegate {
			r.weight += received
		} else {
			r.enqueue(ctx.ID, received) // forwarded below with the resends
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
func (r *reliableNode) Busy() bool { return len(r.outbox) > 0 }

// RunReliableDelegation executes the delegation protocol over a network
// that drops each message independently with probability lossRate, using
// ack-based retransmission. The result matches the lossless protocol
// exactly (same per-node decision streams), demonstrating fault tolerance
// of the convergecast.
func RunReliableDelegation(ctx context.Context, in *core.Instance, alpha float64, decide DecisionRule, seed uint64, lossRate float64) (*Result, error) {
	return RunReliableDelegationAsync(ctx, in, alpha, decide, seed, lossRate, 0)
}

// RunReliableDelegationAsync additionally makes delivery asynchronous:
// every message takes between 1 and 1+maxDelay rounds, maxDelay >= 0.
// Retransmission absorbs both loss and reordering, so the result still
// matches the synchronous lossless run.
func RunReliableDelegationAsync(ctx context.Context, in *core.Instance, alpha float64, decide DecisionRule, seed uint64, lossRate float64, maxDelay int) (*Result, error) {
	if !(alpha >= 0) {
		return nil, violationf(ViolationBadParameter, "negative or NaN alpha %v", alpha)
	}
	if decide == nil {
		return nil, violationf(ViolationBadParameter, "nil decision rule")
	}
	n := in.N()
	root := rng.New(seed)
	contexts := approvalContexts(in, alpha, root)
	nodes := make([]Node, n)
	for v := range nodes {
		nodes[v] = &reliableNode{decide: decide}
	}
	nw, err := NewNetwork(contexts, nodes)
	if err != nil {
		return nil, err
	}
	if err := nw.SetLoss(lossRate, root.DeriveString("loss")); err != nil {
		return nil, err
	}
	if err := nw.SetDelay(maxDelay, root.DeriveString("delay")); err != nil {
		return nil, err
	}
	// Budget: each hop needs ~(1+maxDelay)/(1-q)^2 expected rounds for
	// data+ack; give generous headroom over the worst chain length.
	budget := (200 + 40*n) * (maxDelay + 1)
	if err := nw.Run(ctx, budget); err != nil {
		return nil, err
	}

	res := &Result{
		Delegation: core.NewDelegationGraph(n),
		Weights:    make([]int, n),
		Rounds:     nw.Rounds(),
		Messages:   nw.Messages(),
	}
	for v, node := range nodes {
		rn, ok := node.(*reliableNode)
		if !ok {
			return nil, fmt.Errorf("%w: unexpected node type", ErrProtocol)
		}
		res.Weights[v] = rn.weight
		if rn.delegate != core.NoDelegate {
			if err := res.Delegation.SetDelegate(v, rn.delegate); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}
