package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"

	"liquid/internal/rng"
	"liquid/internal/server"
)

// kind is what a request asks the daemon for.
type kind uint8

const (
	kindEvaluate  kind = iota // /v1/evaluate, approval-threshold sweep point
	kindFault                 // /v1/evaluate with a fault block
	kindWhatIf                // /v1/whatif, explicit profile, no deltas
	kindDelta                 // /v1/whatif against a base, with deltas
	kindMalformed             // either endpoint, answered with a typed 400
)

var kindNames = [...]string{"evaluate", "fault", "whatif", "delta", "malformed"}

func (k kind) String() string { return kindNames[k] }

// request is one pre-encoded HTTP request. wire[0] is the request line and
// headers; the rest are the body's pieces. Large pieces (an instance, a
// delegation profile) are shared by every request that names them, so a
// schedule of thousands of 40 KB bodies costs a few megabytes and sending
// one is a single writev.
type request struct {
	kind   kind
	wire   [][]byte
	status int // expected status: 200, or 400 for malformed requests
}

// body reassembles the request body.
func (r *request) body() []byte { return bytes.Join(r.wire[1:], nil) }

// path is the endpoint the request targets, read back from its head.
func (r *request) path() string {
	head := r.wire[0]
	start := bytes.IndexByte(head, ' ') + 1
	return string(head[start : start+bytes.IndexByte(head[start:], ' ')])
}

// Request deadline and replications. The deadline leaves the exact rung
// affordable at every frozen rate (the cost model prices an n = 2000
// evaluate at ~0.7 s of its 2 s).
const (
	deadlineMS   = 2000
	replications = 8
	poolSize     = 256
)

var (
	pieceInstance    = []byte(`{"instance":`)
	pieceDelegations = []byte(`,"delegations":`)
)

func newRequest(k kind, path string, status int, body ...[]byte) *request {
	n := 0
	for _, b := range body {
		n += len(b)
	}
	head := []byte("POST " + path + " HTTP/1.1\r\nHost: liquidd\r\nContent-Type: application/json\r\nContent-Length: " +
		strconv.Itoa(n) + "\r\n\r\n")
	return &request{kind: k, status: status, wire: append([][]byte{head}, body...)}
}

// tailPiece marshals v and turns its leading '{' into ',' so it continues
// a body whose first fields were spliced in from shared pieces.
func tailPiece(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("bench: marshal %T: %v", v, err)) // plain data structs cannot fail
	}
	b[0] = ','
	return b
}

type evaluateTail struct {
	Mechanism    server.MechanismSpec `json:"mechanism"`
	Seed         uint64               `json:"seed"`
	Replications int                  `json:"replications"`
	DeadlineMS   int64                `json:"deadline_ms"`
	Fault        *server.FaultSpec    `json:"fault,omitempty"`
}

type whatIfTail struct {
	Deltas     []server.DeltaSpec `json:"deltas,omitempty"`
	DeadlineMS int64              `json:"deadline_ms"`
}

func evaluateRequest(inst []byte, tail evaluateTail) *request {
	k := kindEvaluate
	if tail.Fault != nil {
		k = kindFault
	}
	return newRequest(k, "/v1/evaluate", 200, pieceInstance, inst, tailPiece(tail))
}

func whatIfRequest(inst, deleg []byte, deltas []server.DeltaSpec) *request {
	k := kindWhatIf
	if len(deltas) > 0 {
		k = kindDelta
	}
	return newRequest(k, "/v1/whatif", 200, pieceInstance, inst, pieceDelegations, deleg,
		tailPiece(whatIfTail{Deltas: deltas, DeadlineMS: deadlineMS}))
}

// generator produces a workload's request stream: request i is a pure
// function of (seed, i), so a schedule is reproducible and independent of
// how it is cut into phases.
type generator struct {
	root *rng.Stream
	gen  func(s *rng.Stream, i int) *request
}

func (g *generator) request(i int) *request { return g.gen(g.root.Derive(uint64(i)), i) }

// requests returns requests [from, from+n).
func (g *generator) requests(from, n int) []*request {
	out := make([]*request, n)
	for j := range out {
		out[j] = g.request(from + j)
	}
	return out
}

// competencies draws n competencies uniform in [0.3, 0.8): wide enough that
// approval-threshold delegation has somewhere to go at every margin.
func competencies(s *rng.Stream, n int) []float64 {
	ps := make([]float64, n)
	for i := range ps {
		ps[i] = 0.3 + 0.5*s.Float64()
	}
	return ps
}

// upwardProfile draws a delegation profile in which each voter delegates,
// with probability frac, to a uniformly chosen later voter: acyclic by
// construction, with chains of every length.
func upwardProfile(s *rng.Stream, n int, frac float64) []int {
	d := make([]int, n)
	for v := range d {
		d[v] = -1
		if v < n-1 && s.Float64() < frac {
			d[v] = v + 1 + s.IntN(n-v-1)
		}
	}
	return d
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("bench: marshal %T: %v", v, err)) // plain data cannot fail
	}
	return b
}

// instancePool pre-encodes size seeded complete-graph instances of n
// voters, with their competency vectors for building offline expectations.
func instancePool(s *rng.Stream, size, n int) [][]byte {
	pool := make([][]byte, size)
	for k := range pool {
		pool[k] = mustJSON(server.InstanceSpec{N: n, Complete: true, P: competencies(s.Derive(uint64(k)), n)})
	}
	return pool
}

func profilePool(s *rng.Stream, size, n int) [][]byte {
	pool := make([][]byte, size)
	for k := range pool {
		pool[k] = mustJSON(upwardProfile(s.Derive(uint64(k)), n, 0.5))
	}
	return pool
}

// alphaFor draws an approval margin from {0, 0.05, ..., 0.2}.
func alphaFor(s *rng.Stream) float64 { return 0.05 * float64(s.IntN(5)) }

// newSmallGenerator is serve_small: n = 25, 50% evaluate, 20% explicit
// what-if, 20% fault evaluate, 10% malformed bodies of four kinds. Every
// kernel takes microseconds here, so the request path dominates.
func newSmallGenerator(seed uint64, n int) *generator {
	root := rng.New(seed).DeriveString("bench/serve_small")
	insts := instancePool(root.DeriveString("instances"), poolSize, n)
	profiles := profilePool(root.DeriveString("profiles"), poolSize, n)
	bad := malformedPieces(n)
	return &generator{root: root.DeriveString("requests"), gen: func(s *rng.Stream, i int) *request {
		inst := insts[s.IntN(poolSize)]
		switch u := s.Float64(); {
		case u < 0.10:
			return bad[s.IntN(len(bad))]
		case u < 0.60:
			return evaluateRequest(inst, evaluateTail{
				Mechanism: server.MechanismSpec{Name: "approval-threshold", Alpha: alphaFor(s)},
				Seed:      s.Uint64(), Replications: replications, DeadlineMS: deadlineMS,
			})
		case u < 0.80:
			return whatIfRequest(inst, profiles[s.IntN(poolSize)], nil)
		default:
			return evaluateRequest(inst, evaluateTail{
				Mechanism: server.MechanismSpec{Name: "greedy-best", Alpha: 0.05},
				Seed:      s.Uint64(), Replications: replications, DeadlineMS: deadlineMS,
				Fault: &server.FaultSpec{Policy: "fallback-to-direct", DownRate: 0.2},
			})
		}
	}}
}

// malformedPieces are the serve_small bodies the daemon must refuse with a
// typed 400: truncated JSON, a competency out of range, an unknown
// mechanism, and a delegation cycle (legal JSON that fails resolution).
func malformedPieces(n int) []*request {
	ps := make([]float64, n)
	for i := range ps {
		ps[i] = 0.6
	}
	good := mustJSON(server.InstanceSpec{N: n, Complete: true, P: ps})
	ps[3] = 1.5
	badP := mustJSON(server.InstanceSpec{N: n, Complete: true, P: ps})
	cyclic := make([]int, n)
	for v := range cyclic {
		cyclic[v] = -1
	}
	cyclic[0], cyclic[1] = 1, 0
	mal := func(path string, body ...[]byte) *request { return newRequest(kindMalformed, path, 400, body...) }
	tail := tailPiece(evaluateTail{Mechanism: server.MechanismSpec{Name: "direct"}, Seed: 1, Replications: replications, DeadlineMS: deadlineMS})
	return []*request{
		mal("/v1/evaluate", []byte(`{"instance": {"n": `+strconv.Itoa(n)+`}, "mech`)),
		mal("/v1/evaluate", pieceInstance, badP, tail),
		mal("/v1/evaluate", pieceInstance, good, tailPiece(evaluateTail{Mechanism: server.MechanismSpec{Name: "dictator"}, Seed: 1, Replications: replications, DeadlineMS: deadlineMS})),
		mal("/v1/whatif", pieceInstance, good, pieceDelegations, mustJSON(cyclic), tailPiece(whatIfTail{DeadlineMS: deadlineMS})),
	}
}

// newExactGenerator is serve_exact: n = 2000 instances from a seeded pool
// of 256 profiles (≈40 KB bodies), 70% evaluate with a margin in [0, 0.2)
// and 30% explicit what-if.
// It never sends a delta, so the retained-scenario cache is bypassed.
func newExactGenerator(seed uint64, n int) *generator {
	root := rng.New(seed).DeriveString("bench/serve_exact")
	insts := instancePool(root.DeriveString("instances"), poolSize, n)
	profiles := profilePool(root.DeriveString("profiles"), poolSize, n)
	return &generator{root: root.DeriveString("requests"), gen: func(s *rng.Stream, i int) *request {
		inst := insts[s.IntN(poolSize)]
		if s.Float64() < 0.7 {
			// A continuous margin: at n = 2000 the sweep's cost climbs
			// steeply with it, and five fixed margins would make the
			// latency distribution a few separate clusters whose median
			// jumps between them from run to run.
			return evaluateRequest(inst, evaluateTail{
				Mechanism: server.MechanismSpec{Name: "approval-threshold", Alpha: 0.2 * s.Float64()},
				Seed:      s.Uint64(), Replications: replications, DeadlineMS: deadlineMS,
			})
		}
		return whatIfRequest(inst, profiles[s.IntN(poolSize)], nil)
	}}
}

// deltaBases is how many shared base elections serve_delta probes.
const deltaBases = 4

// newDeltaGenerator is serve_delta: n = 2000, every request a delta
// what-if against one of four shared bases with 1–3 repoints, 30% also
// editing a competency (the instance-level path), and 1% naming a fresh
// base, whose arrival fills the daemon's 8-entry scenario cache and
// triggers its wholesale eviction.
func newDeltaGenerator(seed uint64, n int) *generator {
	root := rng.New(seed).DeriveString("bench/serve_delta")
	insts := instancePool(root.DeriveString("instances"), deltaBases, n)
	bases := profilePool(root.DeriveString("profiles"), deltaBases, n)
	return &generator{root: root.DeriveString("requests"), gen: func(s *rng.Stream, i int) *request {
		b := s.IntN(deltaBases)
		deleg := bases[b]
		if s.Float64() < 0.01 {
			deleg = mustJSON(upwardProfile(s.DeriveString("fresh"), n, 0.5))
		}
		k := 1 + s.IntN(3)
		deltas := make([]server.DeltaSpec, 0, k+1)
		for range k {
			v := s.IntN(n)
			to := -1
			if v < n-1 && s.Float64() < 0.7 {
				to = v + 1 + s.IntN(n-v-1)
			}
			deltas = append(deltas, server.DeltaSpec{Kind: "repoint", Voter: v, Target: &to})
		}
		if s.Float64() < 0.3 {
			deltas = append(deltas, server.DeltaSpec{Kind: "competency", Voter: s.IntN(n), P: 0.3 + 0.5*s.Float64()})
		}
		return whatIfRequest(insts[b], deleg, deltas)
	}}
}
