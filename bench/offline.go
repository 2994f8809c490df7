package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"liquid/internal/core"
	"liquid/internal/election"
	"liquid/internal/fault"
	"liquid/internal/prob"
	"liquid/internal/server"
)

// The daemon's defaults, which every served workload runs at.
const (
	exactCostLimit     = 1 << 23
	serverReplications = 64
	serverWorkers      = 1
)

// handler answers a request the way liquidd's handlers do, through the
// same public calls in the same order: decode, resolve (what-if),
// admission pricing, the kernel rung, encode. Every run uses it to compute
// the expected bytes of a sample of responses; a traced run also replays a
// whole phase through it with a span around each call, and the replayed
// bytes must equal the live ones.
//
// With scenarios set, delta what-ifs go through a retained-scenario cache
// that mirrors the daemon's (content-addressed, 8 entries, dropped whole
// when full), so a replay does the work the daemon did. Without it they
// are scored from scratch by the exact kernels — a path that shares no
// retained tree with the daemon, which is what makes the byte comparison
// a check of the incremental path.
type handler struct {
	tr        *tracer
	scenarios *scenarioMirror
}

// answer is a replayed or offline response plus what admission priced it
// at and how long its kernel rung took.
type answer struct {
	status int
	body   []byte
	cost   int64
	kernel time.Duration
}

func (h *handler) respond(ctx context.Context, req int, rq *request) (answer, error) {
	root := h.tr.start(req, 0, "request")
	defer h.tr.end(root)
	if rq.path() == "/v1/evaluate" {
		return h.evaluate(ctx, req, root, rq.body())
	}
	return h.whatIf(req, root, rq.body())
}

func (h *handler) evaluate(ctx context.Context, req, root int, body []byte) (answer, error) {
	sp := h.tr.start(req, root, "server.decode")
	parsed, aerr := server.ParseEvaluateRequest(body)
	h.tr.end(sp)
	if aerr != nil {
		return h.refuse(req, root, aerr)
	}
	sp = h.tr.start(req, root, "server.admission")
	reps := parsed.Req.Replications
	if reps == 0 {
		reps = serverReplications
	}
	cost := int64(len(parsed.Alphas)) * server.EstimateCost(parsed.Instance.N(), reps, exactCostLimit)
	h.tr.end(sp)

	opts := election.Options{Replications: reps, ExactCostLimit: exactCostLimit, Workers: serverWorkers, Seed: parsed.Req.Seed}
	resp := &server.EvaluateResponse{}
	k0 := time.Now()
	if f := parsed.Req.Fault; f != nil {
		sp = h.tr.start(req, root, "fault.sweep")
		points := make([]fault.SweepPoint, len(parsed.Mechanisms))
		for i, mech := range parsed.Mechanisms {
			points[i] = fault.SweepPoint{Mechanism: mech, Opts: fault.ElectionOptions{
				Options: opts, DownRate: f.DownRate, AbstainRate: f.AbstainRate, Policy: parsed.Policy, Alpha: f.Alpha,
			}}
		}
		results, err := fault.EvaluateSweep(ctx, parsed.Instance, points)
		h.tr.end(sp)
		if err != nil {
			return answer{}, fmt.Errorf("fault sweep: %w", err)
		}
		for i, res := range results {
			resp.Results = append(resp.Results, server.PointResult{
				Mechanism: res.Mechanism, Alpha: parsed.Alphas[i], N: res.N,
				PM: res.PM, PMStdErr: res.PMStdErr, PD: res.PD, Gain: res.Gain,
				Policy: res.Policy.String(), MeanDown: res.MeanDown, MeanLost: res.MeanLost,
				MeanFellBack: res.MeanFellBack, MeanRedelegated: res.MeanRedelegated,
			})
		}
	} else {
		sp = h.tr.start(req, root, "election.plan")
		plan, err := election.NewPlan(parsed.Instance, opts)
		if err != nil {
			h.tr.end(sp)
			return answer{}, fmt.Errorf("plan: %w", err)
		}
		plan.PrewarmApproval(parsed.Alphas...)
		h.tr.end(sp)
		sp = h.tr.start(req, root, "election.sweep")
		points := make([]election.SweepPoint, len(parsed.Mechanisms))
		for i, mech := range parsed.Mechanisms {
			points[i] = election.SweepPoint{Mechanism: mech, Seed: parsed.Req.Seed, Replications: reps}
		}
		results, err := election.EvaluateSweep(ctx, plan, points)
		h.tr.end(sp)
		if err != nil {
			return answer{}, fmt.Errorf("sweep: %w", err)
		}
		for i, res := range results {
			resp.Results = append(resp.Results, server.PointResult{
				Mechanism: res.Mechanism, Alpha: parsed.Alphas[i], N: res.N,
				PM: res.PM, PMStdErr: res.PMStdErr, PD: res.PD,
				Gain: res.Gain, GainLo: res.GainLo, GainHi: res.GainHi,
				MeanDelegators: res.MeanDelegators, MeanSinks: res.MeanSinks,
				MeanMaxWeight: res.MeanMaxWeight, MaxMaxWeight: res.MaxMaxWeight,
				MeanLongestChain: res.MeanLongestChain,
				PDTier:           prob.ClassifyExactTier(res.N).String(),
			})
		}
	}
	kernel := time.Since(k0)
	return answer{status: 200, body: h.encode(req, root, resp), cost: cost, kernel: kernel}, nil
}

func (h *handler) whatIf(req, root int, body []byte) (answer, error) {
	sp := h.tr.start(req, root, "server.decode")
	parsed, aerr := server.ParseWhatIfRequest(body)
	h.tr.end(sp)
	if aerr != nil {
		return h.refuse(req, root, aerr)
	}
	sp = h.tr.start(req, root, "core.resolve")
	res, err := parsed.FinalGraph.Resolve()
	h.tr.end(sp)
	if err != nil {
		return h.refuse(req, root, &server.Error{Code: server.CodeBadRequest, Message: fmt.Sprintf("resolving delegations: %v", err), Status: 400})
	}
	sp = h.tr.start(req, root, "server.admission")
	cost := server.EstimateCost(parsed.Instance.N(), 1, exactCostLimit)
	if len(parsed.Deltas) > 0 {
		cost = server.EstimateWhatIfDeltaCost(parsed.FinalInstance.N(), len(parsed.Deltas), exactCostLimit)
	}
	h.tr.end(sp)

	in := parsed.FinalInstance
	resp := &server.WhatIfResponse{
		Sinks: len(res.Sinks), MaxWeight: res.MaxWeight, TotalWeight: res.TotalWeight,
		Delegators: res.Delegators, LongestChain: res.LongestChain, DeltasApplied: len(parsed.Deltas),
	}
	k0 := time.Now()
	if len(parsed.Deltas) > 0 && h.scenarios != nil {
		sp = h.tr.start(req, root, "election.scenario")
		resp.PM, resp.PD, err = h.scenarios.score(parsed)
	} else {
		sp = h.tr.start(req, root, "election.exact")
		resp.PM, err = election.ResolutionProbabilityExact(in, res)
		if err == nil {
			resp.PD, err = election.DirectProbabilityExact(in)
		}
	}
	h.tr.end(sp)
	if err != nil {
		return answer{}, fmt.Errorf("what-if scoring: %w", err)
	}
	kernel := time.Since(k0)
	resp.Gain = resp.PM - resp.PD
	return answer{status: 200, body: h.encode(req, root, resp), cost: cost, kernel: kernel}, nil
}

// refuse encodes a typed 400 the way the daemon's writeError does.
func (h *handler) refuse(req, root int, aerr *server.Error) (answer, error) {
	return answer{status: aerr.Status, body: h.encode(req, root, struct {
		Error *server.Error `json:"error"`
	}{aerr})}, nil
}

// encode is the daemon's writeJSON body: the JSON document and a newline.
func (h *handler) encode(req, root int, v any) []byte {
	sp := h.tr.start(req, root, "server.encode")
	defer h.tr.end(sp)
	return append(mustJSON(v), '\n')
}

// scenarioMirror is the bench's copy of the daemon's retained-scenario
// cache policy, driven through the public election.Scenario calls.
type scenarioMirror struct {
	entries map[[32]byte]*mirrorEntry
	hits    int
	misses  int
}

type mirrorEntry struct {
	plan *election.Plan
	base *core.DelegationGraph
	sc   *election.Scenario
}

// scenarioCacheEntries is the daemon's cache bound.
const scenarioCacheEntries = 8

func newScenarioMirror() *scenarioMirror {
	return &scenarioMirror{entries: make(map[[32]byte]*mirrorEntry)}
}

func (m *scenarioMirror) score(parsed *server.ParsedWhatIf) (pm, pd float64, err error) {
	k := contentKey(parsed.Instance, parsed.Graph)
	e, ok := m.entries[k]
	if ok {
		m.hits++
	} else {
		m.misses++
		if len(m.entries) >= scenarioCacheEntries {
			clear(m.entries)
		}
		e = &mirrorEntry{}
		m.entries[k] = e
	}
	if e.sc == nil {
		plan, err := election.NewPlan(parsed.Instance, election.Options{Replications: 1, ExactCostLimit: exactCostLimit, Workers: 1})
		if err != nil {
			return 0, 0, err
		}
		sc, err := election.NewScenario(plan, parsed.Graph)
		if err != nil {
			return 0, 0, err
		}
		e.plan, e.sc = plan, sc
		e.base = &core.DelegationGraph{Delegate: append([]int(nil), parsed.Graph.Delegate...)}
	}
	sc := e.sc
	if instanceLevel(parsed.Deltas) {
		if sc, err = election.NewScenario(e.plan, e.base); err != nil {
			return 0, 0, err
		}
	} else if err = sc.SetDelegation(e.base); err != nil {
		return 0, 0, err
	}
	if err = sc.ApplyDelta(parsed.Deltas...); err != nil {
		return 0, 0, err
	}
	if pm, err = sc.Score(); err != nil {
		return 0, 0, err
	}
	pd, err = sc.PD()
	return pm, pd, err
}

func instanceLevel(deltas []election.Delta) bool {
	for _, d := range deltas {
		if d.Kind != election.DeltaRepoint {
			return true
		}
	}
	return false
}

// contentKey hashes what the daemon's cache key hashes for the complete
// topologies the bench sends: n, the competency bits and the base
// delegations.
func contentKey(in *core.Instance, d *core.DelegationGraph) [32]byte {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(in.N()))
	for _, p := range in.Competencies() {
		put(math.Float64bits(p))
	}
	for _, t := range d.Delegate {
		put(uint64(int64(t)))
	}
	var k [32]byte
	h.Sum(k[:0])
	return k
}

// isApproximate reports whether a 200 body is flagged as coming from an
// approximate rung.
func isApproximate(body []byte) bool {
	var probe struct {
		Approximate bool `json:"approximate"`
	}
	return json.Unmarshal(body, &probe) == nil && probe.Approximate
}
