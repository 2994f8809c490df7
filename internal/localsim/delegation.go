package localsim

import (
	"context"
	"fmt"

	"liquid/internal/core"
	"liquid/internal/mechanism"
	"liquid/internal/rng"
)

// DecisionRule is the purely local delegation decision a node makes from
// its own view: it returns the chosen delegate id, or core.NoDelegate to
// vote directly. Implementations may use ctx.Rand.
type DecisionRule func(ctx *NodeContext) int

// ThresholdRule is the distributed form of Algorithm 1: delegate to a
// uniformly random approved neighbour iff the approval set reaches
// threshold(degree). A nil threshold means "whenever possible".
func ThresholdRule(threshold mechanism.ThresholdFunc) DecisionRule {
	return func(ctx *NodeContext) int {
		approved := ctx.ApprovedNeighbors()
		min := 1
		if threshold != nil {
			if t := threshold(len(ctx.Neighbors)); t > min {
				min = t
			}
		}
		if len(approved) < min {
			return core.NoDelegate
		}
		return approved[ctx.Rand.IntN(len(approved))]
	}
}

// HalfNeighborhoodRule is the distributed form of the Theorem 5 mechanism:
// delegate iff at least half the neighbourhood is approved.
func HalfNeighborhoodRule() DecisionRule {
	return func(ctx *NodeContext) int {
		approved := ctx.ApprovedNeighbors()
		if len(ctx.Neighbors) == 0 || len(approved) == 0 || 2*len(approved) < len(ctx.Neighbors) {
			return core.NoDelegate
		}
		return approved[ctx.Rand.IntN(len(approved))]
	}
}

// delegationNode runs the distributed delegation protocol:
//
//	Init:    apply the decision rule; if delegating, send this node's own
//	         vote weight (1) downstream.
//	Round r: forward any weight received in round r-1 downstream (if this
//	         node delegated) or absorb it (if this node is a sink).
//
// After quiescence every sink's weight equals 1 + the number of voters
// whose delegation chain ends at it — exactly core.Resolution.
type delegationNode struct {
	decide DecisionRule

	delegate int // target id or core.NoDelegate
	weight   int // accumulated weight (meaningful for sinks)
}

// Init implements Node.
func (d *delegationNode) Init(ctx *NodeContext) []Message {
	d.weight = 1
	d.delegate = d.decide(ctx)
	if d.delegate == core.NoDelegate {
		return nil
	}
	d.weight = 0
	// Hand the own vote downstream immediately.
	return []Message{{From: ctx.ID, To: d.delegate, Payload: 1}}
}

// Round implements Node.
func (d *delegationNode) Round(_ int, inbox []Message, ctx *NodeContext) []Message {
	received := 0
	for _, m := range inbox {
		if m.Payload <= 0 {
			continue
		}
		received += m.Payload
	}
	if received == 0 {
		return nil
	}
	if d.delegate == core.NoDelegate {
		d.weight += received
		return nil
	}
	return []Message{{From: ctx.ID, To: d.delegate, Payload: received}}
}

// Result is the outcome of a distributed delegation run.
type Result struct {
	// Delegation is the delegation graph the protocol produced.
	Delegation *core.DelegationGraph
	// Weights[v] is the weight node v reports for itself (1 + received for
	// sinks, 0 for delegators).
	Weights []int
	// Rounds is the number of synchronous rounds until quiescence.
	Rounds int
	// Messages is the total number of messages delivered.
	Messages int
}

// RunThresholdDelegation executes the distributed threshold-delegation
// protocol (Algorithm 1) on the instance. See RunDelegation for details.
func RunThresholdDelegation(ctx context.Context, in *core.Instance, alpha float64, threshold mechanism.ThresholdFunc, seed uint64) (*Result, error) {
	return RunDelegation(ctx, in, alpha, ThresholdRule(threshold), seed)
}

// RunHalfNeighborhoodDelegation executes the distributed Theorem 5
// mechanism. See RunDelegation for details.
func RunHalfNeighborhoodDelegation(ctx context.Context, in *core.Instance, alpha float64, seed uint64) (*Result, error) {
	return RunDelegation(ctx, in, alpha, HalfNeighborhoodRule(), seed)
}

// approvalContexts builds every voter's local view for the delegation
// protocols: its neighbours, which of them it approves at alpha, and its
// decision stream root.Derive(v).
func approvalContexts(in *core.Instance, alpha float64, root *rng.Stream) []*NodeContext {
	contexts := make([]*NodeContext, in.N())
	for v := range contexts {
		nbrs := in.Topology().Neighbors(v)
		approved := make([]bool, len(nbrs))
		for k, u := range nbrs {
			approved[k] = in.Approves(v, u, alpha)
		}
		contexts[v] = &NodeContext{
			ID:        v,
			Neighbors: nbrs,
			Approved:  approved,
			Rand:      root.Derive(uint64(v)),
		}
	}
	return contexts
}

// RunDelegation executes a distributed delegation protocol with the given
// local decision rule. Per-node random streams are derived from seed and
// the node id, so the run is deterministic.
//
// The maximum round budget is n+2: a delegation chain has at most n-1 hops.
func RunDelegation(ctx context.Context, in *core.Instance, alpha float64, decide DecisionRule, seed uint64) (*Result, error) {
	if !(alpha >= 0) {
		return nil, violationf(ViolationBadParameter, "negative or NaN alpha %v", alpha)
	}
	if decide == nil {
		return nil, violationf(ViolationBadParameter, "nil decision rule")
	}
	n := in.N()
	contexts := approvalContexts(in, alpha, rng.New(seed))
	nodes := make([]Node, n)
	for v := range nodes {
		nodes[v] = &delegationNode{decide: decide}
	}
	nw, err := NewNetwork(contexts, nodes)
	if err != nil {
		return nil, err
	}
	if err := nw.Run(ctx, n+2); err != nil {
		return nil, err
	}

	res := &Result{
		Delegation: core.NewDelegationGraph(n),
		Weights:    make([]int, n),
		Rounds:     nw.Rounds(),
		Messages:   nw.Messages(),
	}
	for v, node := range nodes {
		dn, ok := node.(*delegationNode)
		if !ok {
			return nil, fmt.Errorf("%w: unexpected node type", ErrProtocol)
		}
		res.Weights[v] = dn.weight
		if dn.delegate != core.NoDelegate {
			if err := res.Delegation.SetDelegate(v, dn.delegate); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}
