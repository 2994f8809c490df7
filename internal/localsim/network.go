// Package localsim is a synchronous message-passing simulator in the spirit
// of the LOCAL model of distributed computing, which the paper cites as the
// inspiration for its locality restriction (Section 1.2).
//
// Each voter runs as a node that only knows the pseudonymous identities of
// its neighbours and which of them it approves (the paper's information
// model: nobody knows numeric competencies). The package ships a
// distributed implementation of the threshold delegation mechanism plus a
// weight-convergecast phase; its output is verified against the centralized
// resolution in tests, demonstrating that the paper's mechanisms really are
// implementable locally.
//
// Networks can be made faulty along two axes: probabilistic link faults
// (SetLoss, SetDelay) and scheduled faults injected by a FaultInjector
// (SetFaults): crash-stop nodes, network partitions with heal rounds,
// message duplication, and delivery reordering. internal/fault provides a
// deterministic, seed-derived FaultInjector implementation.
package localsim

import (
	"context"

	"liquid/internal/rng"
	"liquid/internal/telemetry"
)

// Simulator telemetry on the telemetry.Default registry: one runs tick per
// execution plus the run's round/message/drop tallies, added when the loop
// exits so a run contributes exactly once however it ends. The per-network
// accessors (Rounds, Messages, ...) stay the source protocol checks read;
// these aggregates are write-only observability (telemflow analyzer).
var (
	cNetRuns       = telemetry.NewCounter("localsim/runs")
	cNetRounds     = telemetry.NewCounter("localsim/rounds")
	cNetMessages   = telemetry.NewCounter("localsim/messages")
	cNetDropped    = telemetry.NewCounter("localsim/messages_dropped")
	cNetDuplicated = telemetry.NewCounter("localsim/messages_duplicated")
)

// Message is a point-to-point message delivered in the round after it is
// sent. Kind, Payload, and Seq semantics belong to the protocol.
type Message struct {
	From    int
	To      int
	Kind    int
	Payload int
	Seq     int
}

// NodeContext is the read-only local view a node is given: its own id, its
// neighbour ids, its approval bits, and a private random stream. Ids are
// pseudonymous: protocols may compare and store them but learn nothing
// else.
type NodeContext struct {
	ID        int
	Neighbors []int
	// Approved[k] reports whether the node approves Neighbors[k].
	Approved []bool
	Rand     *rng.Stream
}

// ApprovedNeighbors returns the ids of approved neighbours.
func (c *NodeContext) ApprovedNeighbors() []int {
	var out []int
	for k, ok := range c.Approved {
		if ok {
			out = append(out, c.Neighbors[k])
		}
	}
	return out
}

// Node is a protocol participant. Init runs once before round 0; Round runs
// every round with the messages delivered this round and returns the
// messages to send. The simulation stops at global quiescence (no messages
// in flight and no node requesting more rounds).
type Node interface {
	Init(ctx *NodeContext) []Message
	Round(round int, inbox []Message, ctx *NodeContext) []Message
}

// Persistent is an optional Node extension for retransmission protocols on
// lossy networks: a node reporting Busy() == true keeps the simulation
// running even in rounds where every in-flight message was dropped.
//
// Busy extends Run only. RunRounds executes a fixed schedule by contract
// and deliberately ignores it (see RunRounds).
type Persistent interface {
	Busy() bool
}

// FaultInjector is the hook through which a fault plan perturbs a network.
// Implementations must be deterministic functions of their own state (plans
// carry their own derived random streams), so a seeded run is reproducible.
// internal/fault provides the canonical implementation.
type FaultInjector interface {
	// Crashed reports whether node is crash-stopped at round (crash-stop is
	// monotone: once true for some round it stays true for all later
	// rounds). A crashed node neither executes rounds, nor sends, nor
	// receives.
	Crashed(node, round int) bool
	// Cut reports whether the link from -> to is severed (partitioned) for
	// messages sent during round. Cut messages are dropped at send time.
	Cut(from, to, round int) bool
	// Duplicates returns how many extra copies of a message sent
	// from -> to during round to deliver (0 for none). Each copy draws its
	// own delivery delay.
	Duplicates(from, to, round int) int
	// Reorder may permute the batch of messages due for delivery this
	// round in place, modelling delivery-order nondeterminism.
	Reorder(round int, batch []Message)
}

// Network simulates a synchronous network of nodes, optionally with lossy
// links and injected faults.
type Network struct {
	contexts []*NodeContext
	nodes    []Node

	lossRate   float64
	lossStream *rng.Stream

	maxDelay    int
	delayStream *rng.Stream

	faults FaultInjector

	started       bool
	ranQuiescence bool

	rounds     int
	messages   int
	dropped    int
	cutDrops   int
	crashDrops int
	duplicated int
}

// SetLoss makes every message independently dropped with probability rate,
// drawn from s. Rate outside [0, 1) is rejected. Calling after Run or
// RunRounds has started is a protocol violation (ErrProtocol).
func (nw *Network) SetLoss(rate float64, s *rng.Stream) error {
	if nw.started {
		return violationf(ViolationConfigAfterStart, "SetLoss after the simulation started")
	}
	if rate < 0 || rate >= 1 {
		return violationf(ViolationBadParameter, "loss rate %v not in [0, 1)", rate)
	}
	if rate > 0 && s == nil {
		return violationf(ViolationBadParameter, "loss rate needs a random stream")
	}
	nw.lossRate = rate
	nw.lossStream = s
	return nil
}

// SetDelay makes message delivery asynchronous: each message is delivered
// after between 1 and 1+maxDelay rounds, drawn from s, instead of exactly
// one. maxDelay 0 disables extra delay; a negative maxDelay is rejected.
// Calling after Run or RunRounds has started is a protocol violation
// (ErrProtocol).
func (nw *Network) SetDelay(maxDelay int, s *rng.Stream) error {
	if nw.started {
		return violationf(ViolationConfigAfterStart, "SetDelay after the simulation started")
	}
	if maxDelay < 0 {
		return violationf(ViolationBadParameter, "max delay %d < 0", maxDelay)
	}
	if maxDelay > 0 && s == nil {
		return violationf(ViolationBadParameter, "delay needs a random stream")
	}
	nw.maxDelay = maxDelay
	nw.delayStream = s
	return nil
}

// SetFaults installs a fault injector (nil removes it). Calling after Run
// or RunRounds has started is a protocol violation (ErrProtocol).
func (nw *Network) SetFaults(fi FaultInjector) error {
	if nw.started {
		return violationf(ViolationConfigAfterStart, "SetFaults after the simulation started")
	}
	nw.faults = fi
	return nil
}

// NewNetwork builds a network over the given contexts and nodes (parallel
// slices).
func NewNetwork(contexts []*NodeContext, nodes []Node) (*Network, error) {
	if len(contexts) != len(nodes) {
		return nil, violationf(ViolationBadParameter, "%d contexts for %d nodes", len(contexts), len(nodes))
	}
	return &Network{contexts: contexts, nodes: nodes}, nil
}

// Run executes the protocol until quiescence or maxRounds, whichever comes
// first. It returns an error if maxRounds is exhausted with messages still
// in flight, or if any node addresses a message to a non-neighbour.
// Cancelling ctx stops the simulation between rounds with ctx's error.
// Crashed nodes do not count towards quiescence. Run may only be invoked
// once per Network (ErrProtocol otherwise).
func (nw *Network) Run(ctx context.Context, maxRounds int) error {
	if nw.ranQuiescence {
		return violationf(ViolationAlreadyStarted, "Run can only be invoked once per network")
	}
	nw.ranQuiescence = true
	return nw.run(ctx, maxRounds, false)
}

// RunRounds executes exactly `rounds` synchronous rounds regardless of
// message backlog — for protocols (like gossip) that send every round and
// never reach quiescence. Cancelling ctx stops the simulation between
// rounds with ctx's error.
//
// RunRounds shares Run's delivery machinery (loss, delay, and injected
// faults all apply), with two documented divergences inherent to a fixed
// schedule: messages still in flight when the budget ends are discarded,
// and Persistent.Busy is ignored — a node reporting Busy neither extends
// nor shortens the schedule (tested in TestRunRoundsIgnoresBusy).
//
// Unlike Run, RunRounds may be called repeatedly to resume the schedule
// (convergence checks between segments); each call re-runs Init and numbers
// its rounds from 0, so nodes whose Init emits messages should be driven in
// a single call.
func (nw *Network) RunRounds(ctx context.Context, rounds int) error {
	return nw.run(ctx, rounds, true)
}

// crashed reports whether the injector (if any) declares node down at
// round.
func (nw *Network) crashed(node, round int) bool {
	return nw.faults != nil && nw.faults.Crashed(node, round)
}

// deliver validates and enqueues the messages sender emitted during
// sendRound onto the delivery wheel, applying injected faults and link
// faults in order: crash (sender down), cut (partition), loss, then
// duplication and delay.
func (nw *Network) deliver(wheel [][]Message, pending *int, msgs []Message, sender, sendRound int) error {
	n := len(nw.nodes)
	for _, m := range msgs {
		if m.From != sender {
			return &ProtocolError{Violation: ViolationForgedSender, Node: sender, Target: m.From, Round: sendRound,
				Detail: "message claims a different sender"}
		}
		if m.To < 0 || m.To >= n {
			return &ProtocolError{Violation: ViolationUnknownRecipient, Node: sender, Target: m.To, Round: sendRound,
				Detail: "recipient outside the network"}
		}
		if !nw.isNeighbor(sender, m.To) {
			return &ProtocolError{Violation: ViolationNonNeighbor, Node: sender, Target: m.To, Round: sendRound,
				Detail: "recipient is not a neighbour"}
		}
		if nw.crashed(sender, sendRound) {
			// Only reachable for Init output of nodes crashed at round 0:
			// the round loop never runs crashed nodes.
			nw.crashDrops++
			continue
		}
		if nw.faults != nil && nw.faults.Cut(m.From, m.To, sendRound) {
			nw.messages++
			nw.cutDrops++
			continue
		}
		nw.messages++
		if nw.lossRate > 0 && nw.lossStream.Bernoulli(nw.lossRate) {
			nw.dropped++
			continue
		}
		copies := 1
		if nw.faults != nil {
			if extra := nw.faults.Duplicates(m.From, m.To, sendRound); extra > 0 {
				copies += extra
				nw.duplicated += extra
			}
		}
		for c := 0; c < copies; c++ {
			slot := 0
			if nw.maxDelay > 0 {
				slot = nw.delayStream.IntN(nw.maxDelay + 1)
			}
			wheel[slot] = append(wheel[slot], m)
			*pending++
		}
	}
	return nil
}

// anyBusy reports whether any live node requests more rounds.
func (nw *Network) anyBusy(round int) bool {
	for i, node := range nw.nodes {
		if nw.crashed(i, round) {
			continue
		}
		if p, ok := node.(Persistent); ok && p.Busy() {
			return true
		}
	}
	return false
}

// run is the shared execution loop behind Run (fixed == false: stop at
// quiescence, error past maxRounds) and RunRounds (fixed == true: execute
// exactly maxRounds rounds).
func (nw *Network) run(ctx context.Context, maxRounds int, fixed bool) error {
	nw.started = true
	// Snapshot the cumulative tallies so a network executed twice (Run then
	// RunRounds on a fresh network is the normal shape, but nothing forbids
	// reuse) contributes each round and message to the aggregates once.
	r0, m0 := nw.rounds, nw.messages
	d0 := nw.dropped + nw.cutDrops + nw.crashDrops
	du0 := nw.duplicated
	defer func() {
		cNetRuns.Inc()
		cNetRounds.Add(uint64(nw.rounds - r0))
		cNetMessages.Add(uint64(nw.messages - m0))
		cNetDropped.Add(uint64(nw.dropped + nw.cutDrops + nw.crashDrops - d0))
		cNetDuplicated.Add(uint64(nw.duplicated - du0))
	}()

	n := len(nw.nodes)
	// wheel[k] holds messages due k rounds from now; wheel[0] is the next
	// round's inbox batch.
	wheelSize := nw.maxDelay + 1
	if wheelSize < 1 {
		wheelSize = 1
	}
	wheel := make([][]Message, wheelSize)
	pending := 0

	for i, node := range nw.nodes {
		if err := nw.deliver(wheel, &pending, node.Init(nw.contexts[i]), i, 0); err != nil {
			return err
		}
	}

	inbox := make([][]Message, n)
	for round := 0; ; round++ {
		if fixed {
			if round >= maxRounds {
				return nil // in-flight messages past the schedule are discarded
			}
		} else if pending == 0 && !nw.anyBusy(round) {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if !fixed && round >= maxRounds {
			return &ProtocolError{Violation: ViolationNoQuiescence, Node: -1, Target: -1, Round: maxRounds,
				Detail: "round budget exhausted with messages in flight"}
		}
		nw.rounds++
		// Pop the due slot and rotate the wheel.
		due := wheel[0]
		copy(wheel, wheel[1:])
		wheel[len(wheel)-1] = nil
		pending -= len(due)
		if nw.faults != nil {
			nw.faults.Reorder(round, due)
		}
		for i := range inbox {
			inbox[i] = inbox[i][:0]
		}
		for _, m := range due {
			if nw.crashed(m.To, round) {
				nw.crashDrops++
				continue
			}
			inbox[m.To] = append(inbox[m.To], m)
		}
		for i, node := range nw.nodes {
			if nw.crashed(i, round) {
				continue
			}
			if err := nw.deliver(wheel, &pending, node.Round(round, inbox[i], nw.contexts[i]), i, round); err != nil {
				return err
			}
		}
	}
}

func (nw *Network) isNeighbor(u, v int) bool {
	for _, w := range nw.contexts[u].Neighbors {
		if w == v {
			return true
		}
	}
	return false
}

// Rounds returns the number of executed rounds.
func (nw *Network) Rounds() int { return nw.rounds }

// Messages returns the total number of sent messages (including dropped
// and partitioned, excluding sends suppressed by sender crashes).
func (nw *Network) Messages() int { return nw.messages }

// Dropped returns the number of messages lost to probabilistic link
// faults.
func (nw *Network) Dropped() int { return nw.dropped }

// CutDrops returns the number of messages lost to partitions.
func (nw *Network) CutDrops() int { return nw.cutDrops }

// CrashDrops returns the number of messages suppressed by crashed senders
// or discarded at crashed recipients.
func (nw *Network) CrashDrops() int { return nw.crashDrops }

// Duplicated returns the number of extra message copies injected.
func (nw *Network) Duplicated() int { return nw.duplicated }
