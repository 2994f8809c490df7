package localsim

import (
	"context"
	"errors"
	"testing"
	"testing/quick"

	"liquid/internal/core"
	"liquid/internal/graph"
	"liquid/internal/mechanism"
	"liquid/internal/rng"
)

func mustInstance(t *testing.T, top graph.Topology, p []float64) *core.Instance {
	t.Helper()
	in, err := core.NewInstance(top, p)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestDistributedMatchesCentralizedResolution(t *testing.T) {
	s := rng.New(5)
	g, err := graph.ErdosRenyi(40, 0.25, s)
	if err != nil {
		t.Fatal(err)
	}
	p := make([]float64, 40)
	for i := range p {
		p[i] = s.Float64()
	}
	in := mustInstance(t, g, p)

	res, err := RunThresholdDelegation(context.Background(), in, 0.05, nil, 77)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Delegation.ValidateLocal(in, 0.05); err != nil {
		t.Fatalf("protocol produced non-local delegation: %v", err)
	}
	central, err := res.Delegation.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < in.N(); v++ {
		wantW := 0
		if central.SinkOf[v] == v {
			wantW = central.Weight[v]
		}
		if res.Weights[v] != wantW {
			t.Fatalf("node %d reports weight %d, centralized resolution says %d", v, res.Weights[v], wantW)
		}
	}
	// Convergecast terminates in longest-chain + O(1) rounds.
	if res.Rounds > central.LongestChain+2 {
		t.Fatalf("rounds %d for chain length %d", res.Rounds, central.LongestChain)
	}
}

func TestDistributedThresholdBlocksDelegation(t *testing.T) {
	// One strong voter; threshold 2 cannot be met anywhere.
	p := []float64{0.9, 0.4, 0.4, 0.4}
	expTop, err := graph.CompleteExplicit(4)
	if err != nil {
		t.Fatal(err)
	}
	in := mustInstance(t, expTop, p)
	res, err := RunThresholdDelegation(context.Background(), in, 0.1, mechanism.ConstantThreshold(2), 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delegation.NumDelegators() != 0 {
		t.Fatal("threshold 2 should block delegation")
	}
	for v, w := range res.Weights {
		if w != 1 {
			t.Fatalf("direct voter %d weight %d", v, w)
		}
	}
	if res.Messages != 0 {
		t.Fatalf("no delegation should mean no messages, got %d", res.Messages)
	}
}

func TestDistributedStarConcentration(t *testing.T) {
	g, err := graph.Star(9)
	if err != nil {
		t.Fatal(err)
	}
	p := make([]float64, 9)
	p[0] = 2.0 / 3
	for i := 1; i < 9; i++ {
		p[i] = 3.0 / 5
	}
	in := mustInstance(t, g, p)
	res, err := RunThresholdDelegation(context.Background(), in, 0.01, nil, 9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Weights[0] != 9 {
		t.Fatalf("center weight %d, want 9", res.Weights[0])
	}
	if res.Rounds != 1 {
		t.Fatalf("star convergecast should take 1 round, took %d", res.Rounds)
	}
}

func TestDistributedNegativeAlpha(t *testing.T) {
	in := mustInstance(t, graph.NewComplete(3), []float64{0.1, 0.5, 0.9})
	if _, err := RunThresholdDelegation(context.Background(), in, -0.1, nil, 1); !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v", err)
	}
}

func TestNetworkRejectsNonNeighborSend(t *testing.T) {
	contexts := []*NodeContext{
		{ID: 0, Neighbors: []int{1}, Approved: []bool{false}, Rand: rng.New(1)},
		{ID: 1, Neighbors: []int{0}, Approved: []bool{false}, Rand: rng.New(2)},
		{ID: 2, Rand: rng.New(3)},
	}
	nodes := []Node{
		&badSender{target: 2}, // 2 is not a neighbour of 0
		&silentNode{},
		&silentNode{},
	}
	nw, err := NewNetwork(contexts, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Run(context.Background(), 10); !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v", err)
	}
}

func TestNetworkRejectsForgedSender(t *testing.T) {
	contexts := []*NodeContext{
		{ID: 0, Neighbors: []int{1}, Approved: []bool{false}, Rand: rng.New(1)},
		{ID: 1, Neighbors: []int{0}, Approved: []bool{false}, Rand: rng.New(2)},
	}
	nodes := []Node{&forgingSender{}, &silentNode{}}
	nw, err := NewNetwork(contexts, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Run(context.Background(), 10); !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v", err)
	}
}

func TestNetworkRoundLimit(t *testing.T) {
	contexts := []*NodeContext{
		{ID: 0, Neighbors: []int{1}, Approved: []bool{false}, Rand: rng.New(1)},
		{ID: 1, Neighbors: []int{0}, Approved: []bool{false}, Rand: rng.New(2)},
	}
	nodes := []Node{&pingPong{peer: 1}, &pingPong{peer: 0}}
	nw, err := NewNetwork(contexts, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Run(context.Background(), 5); !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v", err)
	}
}

func TestNetworkSizeMismatch(t *testing.T) {
	if _, err := NewNetwork(make([]*NodeContext, 2), make([]Node, 3)); !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v", err)
	}
}

func TestQuickDistributedWeightsMatchCentralized(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%25) + 3
		s := rng.New(seed)
		g, err := graph.ErdosRenyi(n, 0.3, s)
		if err != nil {
			return false
		}
		p := make([]float64, n)
		for i := range p {
			p[i] = s.Float64()
		}
		in, err := core.NewInstance(g, p)
		if err != nil {
			return false
		}
		res, err := RunThresholdDelegation(context.Background(), in, 0.03, nil, seed^0xBEEF)
		if err != nil {
			return false
		}
		central, err := res.Delegation.Resolve()
		if err != nil {
			return false
		}
		total := 0
		for v, w := range res.Weights {
			total += w
			want := 0
			if central.SinkOf[v] == v {
				want = central.Weight[v]
			}
			if w != want {
				return false
			}
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

type silentNode struct{}

func (*silentNode) Init(*NodeContext) []Message                  { return nil }
func (*silentNode) Round(int, []Message, *NodeContext) []Message { return nil }

type badSender struct{ target int }

func (b *badSender) Init(ctx *NodeContext) []Message {
	return []Message{{From: ctx.ID, To: b.target, Payload: 1}}
}
func (*badSender) Round(int, []Message, *NodeContext) []Message { return nil }

type forgingSender struct{}

func (*forgingSender) Init(ctx *NodeContext) []Message {
	return []Message{{From: ctx.ID + 1, To: 1, Payload: 1}}
}
func (*forgingSender) Round(int, []Message, *NodeContext) []Message { return nil }

type pingPong struct{ peer int }

func (p *pingPong) Init(ctx *NodeContext) []Message {
	return []Message{{From: ctx.ID, To: p.peer, Payload: 1}}
}

func (p *pingPong) Round(_ int, inbox []Message, ctx *NodeContext) []Message {
	if len(inbox) == 0 {
		return nil
	}
	return []Message{{From: ctx.ID, To: p.peer, Payload: 1}}
}

func TestHalfNeighborhoodDistributedMatchesCentralized(t *testing.T) {
	s := rng.New(31)
	g, err := graph.RandomRegular(60, 10, s)
	if err != nil {
		t.Fatal(err)
	}
	p := make([]float64, 60)
	for i := range p {
		p[i] = 0.45 + 0.1*s.Float64()
	}
	in := mustInstance(t, g, p)
	res, err := RunHalfNeighborhoodDelegation(context.Background(), in, 0.02, 41)
	if err != nil {
		t.Fatal(err)
	}
	// Every delegation must satisfy the half-neighbourhood rule.
	for v, j := range res.Delegation.Delegate {
		approved := in.ApprovalView(0.02).Set(v)
		if j == core.NoDelegate {
			if len(approved) > 0 && 2*len(approved) >= in.Topology().Degree(v) {
				t.Fatalf("node %d should have delegated (%d approved of %d)", v, len(approved), in.Topology().Degree(v))
			}
			continue
		}
		if 2*len(approved) < in.Topology().Degree(v) {
			t.Fatalf("node %d delegated below the half threshold", v)
		}
		if !in.Approves(v, j, 0.02) {
			t.Fatalf("node %d delegated to unapproved %d", v, j)
		}
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
			t.Fatalf("node %d weight %d, want %d", v, res.Weights[v], want)
		}
	}
}

func TestRunDelegationNilRule(t *testing.T) {
	in := mustInstance(t, graph.NewComplete(3), []float64{0.1, 0.5, 0.9})
	if _, err := RunDelegation(context.Background(), in, 0.1, nil, 1); !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v", err)
	}
}
