package localsim

import (
	"context"
	"errors"
	"testing"

	"liquid/internal/core"
	"liquid/internal/graph"
	"liquid/internal/rng"
)

func lossyTestInstance(t *testing.T, n int, seed uint64) *core.Instance {
	t.Helper()
	s := rng.New(seed)
	g, err := graph.RandomRegular(n, 8, s)
	if err != nil {
		t.Fatal(err)
	}
	p := make([]float64, n)
	for i := range p {
		p[i] = 0.3 + 0.4*s.Float64()
	}
	return mustInstance(t, g, p)
}

func TestReliableMatchesCentralizedUnderLoss(t *testing.T) {
	in := lossyTestInstance(t, 60, 61)
	for _, loss := range []float64{0, 0.1, 0.3, 0.5} {
		res, err := RunReliableDelegation(context.Background(), in, 0.03, ThresholdRule(nil), 71, loss)
		if err != nil {
			t.Fatalf("loss %v: %v", loss, err)
		}
		central, err := res.Delegation.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < in.N(); v++ {
			want := 0
			if central.SinkOf[v] == v {
				want = central.Weight[v]
			}
			if res.Weights[v] != want {
				t.Fatalf("loss %v: node %d weight %d, want %d", loss, v, res.Weights[v], want)
			}
		}
	}
}

func TestReliableSameDecisionsAsUnreliable(t *testing.T) {
	// Same seed => same per-node decision streams => identical delegation
	// graphs, loss or no loss.
	in := lossyTestInstance(t, 40, 62)
	a, err := RunDelegation(context.Background(), in, 0.03, ThresholdRule(nil), 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunReliableDelegation(context.Background(), in, 0.03, ThresholdRule(nil), 5, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Delegation.Delegate {
		if a.Delegation.Delegate[v] != b.Delegation.Delegate[v] {
			t.Fatalf("node %d: delegate %d vs %d", v, a.Delegation.Delegate[v], b.Delegation.Delegate[v])
		}
	}
}

func TestReliableLossCostsMessages(t *testing.T) {
	in := lossyTestInstance(t, 50, 63)
	clean, err := RunReliableDelegation(context.Background(), in, 0.03, ThresholdRule(nil), 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	lossy, err := RunReliableDelegation(context.Background(), in, 0.03, ThresholdRule(nil), 9, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if lossy.Messages <= clean.Messages {
		t.Fatalf("retransmission should cost messages: %d vs %d", lossy.Messages, clean.Messages)
	}
	if lossy.Rounds <= clean.Rounds {
		t.Fatalf("loss should cost rounds: %d vs %d", lossy.Rounds, clean.Rounds)
	}
}

func TestUnreliableProtocolLosesWeightUnderLoss(t *testing.T) {
	// The ack-free protocol undercounts when messages drop: total reported
	// weight falls below n. This is the failure the reliable variant fixes.
	in := lossyTestInstance(t, 80, 64)
	n := in.N()
	root := rng.New(33)
	contexts := make([]*NodeContext, n)
	nodes := make([]Node, n)
	for v := 0; v < n; v++ {
		nbrs := in.Topology().Neighbors(v)
		approved := make([]bool, len(nbrs))
		for k, u := range nbrs {
			approved[k] = in.Approves(v, u, 0.03)
		}
		contexts[v] = &NodeContext{ID: v, Neighbors: nbrs, Approved: approved, Rand: root.Derive(uint64(v))}
		nodes[v] = &delegationNode{decide: ThresholdRule(nil)}
	}
	nw, err := NewNetwork(contexts, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.SetLoss(0.5, root.DeriveString("loss")); err != nil {
		t.Fatal(err)
	}
	if err := nw.Run(context.Background(), n+2); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, node := range nodes {
		total += node.(*delegationNode).weight
	}
	if total >= n {
		t.Fatalf("expected weight loss under 50%% drops, got total %d of %d", total, n)
	}
	if nw.Dropped() == 0 {
		t.Fatal("expected dropped messages")
	}
}

func TestSetLossValidation(t *testing.T) {
	nw, err := NewNetwork(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.SetLoss(-0.1, rng.New(1)); !errors.Is(err, ErrProtocol) {
		t.Error("negative rate accepted")
	}
	if err := nw.SetLoss(1, rng.New(1)); !errors.Is(err, ErrProtocol) {
		t.Error("rate 1 accepted")
	}
	if err := nw.SetLoss(0.5, nil); !errors.Is(err, ErrProtocol) {
		t.Error("nil stream accepted")
	}
	if err := nw.SetLoss(0, nil); err != nil {
		t.Errorf("zero loss with nil stream should be fine: %v", err)
	}
}

func TestReliableValidation(t *testing.T) {
	in := mustInstance(t, graph.NewComplete(3), []float64{0.2, 0.5, 0.8})
	if _, err := RunReliableDelegation(context.Background(), in, -1, ThresholdRule(nil), 1, 0); !errors.Is(err, ErrProtocol) {
		t.Error("negative alpha accepted")
	}
	if _, err := RunReliableDelegation(context.Background(), in, 0.1, nil, 1, 0); !errors.Is(err, ErrProtocol) {
		t.Error("nil rule accepted")
	}
	if _, err := RunReliableDelegation(context.Background(), in, 0.1, ThresholdRule(nil), 1, 1.5); !errors.Is(err, ErrProtocol) {
		t.Error("bad loss rate accepted")
	}
}

func TestReliableSurvivesAsyncDelays(t *testing.T) {
	in := lossyTestInstance(t, 50, 81)
	for _, tt := range []struct {
		loss  float64
		delay int
	}{
		{0, 3},
		{0.2, 2},
		{0.4, 4},
		{0.5, 5}, // heavy loss and delay combined
	} {
		res, err := RunReliableDelegationAsync(context.Background(), in, 0.03, ThresholdRule(nil), 17, tt.loss, tt.delay)
		if err != nil {
			t.Fatalf("loss %v delay %d: %v", tt.loss, tt.delay, err)
		}
		central, err := res.Delegation.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < in.N(); v++ {
			want := 0
			if central.SinkOf[v] == v {
				want = central.Weight[v]
			}
			if res.Weights[v] != want {
				t.Fatalf("loss %v delay %d: node %d weight %d, want %d", tt.loss, tt.delay, v, res.Weights[v], want)
			}
		}
	}
}

func TestSetDelayValidation(t *testing.T) {
	nw, err := NewNetwork(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.SetDelay(3, nil); !errors.Is(err, ErrProtocol) {
		t.Error("delay without stream accepted")
	}
	if err := nw.SetDelay(0, nil); err != nil {
		t.Errorf("zero delay should be fine: %v", err)
	}
}

// TestNegativeDelayRejected: the runners derive their round budgets and
// liveness timeouts from maxDelay+1, so a negative delay must fail as a bad
// parameter, not as a quiescence failure or a spurious fallback.
func TestNegativeDelayRejected(t *testing.T) {
	in := lossyTestInstance(t, 20, 91)
	_, errAsync := RunReliableDelegationAsync(context.Background(), in, 0.03, ThresholdRule(nil), 1, 0, -1)
	_, errFaulty := RunReliableDelegationFaulty(context.Background(), in, 0.03, ThresholdRule(nil), 1, ReliableFaultOptions{MaxDelay: -1})
	for i, err := range []error{errAsync, errFaulty} {
		var pe *ProtocolError
		if !errors.As(err, &pe) || pe.Violation != ViolationBadParameter {
			t.Errorf("runner %d (async, faulty), max delay -1: err = %v, want a %v violation", i, err, ViolationBadParameter)
		}
	}
}

// TestBadParametersAreProtocolErrors: every runner reports a negative alpha
// or a nil rule as a *ProtocolError with ViolationBadParameter, which still
// matches ErrProtocol.
func TestBadParametersAreProtocolErrors(t *testing.T) {
	in := lossyTestInstance(t, 20, 93)
	runners := []struct {
		name string
		run  func(alpha float64, decide DecisionRule) error
	}{
		{"RunDelegation", func(alpha float64, decide DecisionRule) error {
			_, err := RunDelegation(context.Background(), in, alpha, decide, 1)
			return err
		}},
		{"RunReliableDelegationAsync", func(alpha float64, decide DecisionRule) error {
			_, err := RunReliableDelegationAsync(context.Background(), in, alpha, decide, 1, 0, 0)
			return err
		}},
		{"RunReliableDelegationFaulty", func(alpha float64, decide DecisionRule) error {
			_, err := RunReliableDelegationFaulty(context.Background(), in, alpha, decide, 1, ReliableFaultOptions{})
			return err
		}},
	}
	params := []struct {
		name   string
		alpha  float64
		decide DecisionRule
	}{
		{"alpha -0.1", -0.1, ThresholdRule(nil)},
		{"nil rule", 0.03, nil},
	}
	for _, r := range runners {
		for _, p := range params {
			err := r.run(p.alpha, p.decide)
			var pe *ProtocolError
			if !errors.As(err, &pe) || pe.Violation != ViolationBadParameter {
				t.Errorf("%s, %s: err = %v, want a %v violation", r.name, p.name, err, ViolationBadParameter)
			}
			if !errors.Is(err, ErrProtocol) {
				t.Errorf("%s, %s: err = %v does not match ErrProtocol", r.name, p.name, err)
			}
		}
	}
}
