// Package server is the serving layer: a stdlib-only net/http JSON API in
// front of the election engines. It owns the robustness stack the batch
// binaries never needed — request validation, per-request deadlines
// propagated as contexts into the engines' cancellation paths, a bounded
// admission queue with cost-aware load shedding, workers that share one
// queue and isolate panics, and graceful degradation that trades the exact
// kernels for certified normal intervals (prob.CertifyMajority) when a
// deadline budget cannot afford exact (see DESIGN.md §14).
//
// Accounting invariant: every request the listener delivers is counted in
// exactly one of {malformed, shed, completed, failed, expired}, so
// received == malformed + shed + completed + failed + expired holds at
// every quiescent point. Load generators verify it from the outside
// (sent == sum of their per-status counts).
package server

import (
	"errors"
	"fmt"
	"math"
	"net/http"

	"liquid/internal/core"
	"liquid/internal/election"
	"liquid/internal/fault"
	"liquid/internal/graph"
	"liquid/internal/mechanism"
)

// Error is the typed error payload of every non-2xx response:
// {"error": {"code": "...", "message": "..."}}. Codes are schema-stable;
// messages are human-readable and may change.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Status is the HTTP status to send. Not serialized; the status line
	// already carries it.
	Status int `json:"-"`
}

// Error implements error.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// Typed request-rejection codes (all HTTP 400 unless noted).
const (
	// CodeBadJSON: the body is not syntactically valid JSON for the schema.
	CodeBadJSON = "bad_json"
	// CodeBodyTooLarge: the body exceeded the server's byte cap.
	CodeBodyTooLarge = "body_too_large"
	// CodeBadCompetency: a competency is NaN, ±Inf, or outside [0,1].
	CodeBadCompetency = "bad_competency"
	// CodeBadAlpha: an approval margin is NaN, ±Inf, or outside [0,1].
	CodeBadAlpha = "bad_alpha"
	// CodeDuplicateEdge: the edge list repeats an undirected edge.
	CodeDuplicateEdge = "duplicate_edge"
	// CodeBadEdge: an edge is a self-loop or has an endpoint out of range.
	CodeBadEdge = "bad_edge"
	// CodeBadMechanism: unknown mechanism name.
	CodeBadMechanism = "bad_mechanism"
	// CodeBadDelta: a what-if delta is malformed or inapplicable to the
	// instance it would mutate.
	CodeBadDelta = "bad_delta"
	// CodeBadRequest: any other structural rejection.
	CodeBadRequest = "bad_request"
	// CodeShed (429): the admission controller refused the request.
	CodeShed = "shed"
	// CodeDeadlineExceeded (504): the deadline expired before the
	// evaluation, exact or certified, could complete.
	CodeDeadlineExceeded = "deadline_exceeded"
	// CodeInternalPanic (500): a worker recovered a panic evaluating the
	// request.
	CodeInternalPanic = "internal_panic"
	// CodeInternal (500): any other evaluation failure.
	CodeInternal = "internal"
)

func badRequest(code, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...), Status: http.StatusBadRequest}
}

// maxVoters caps instance size at decode time: beyond this the cost model
// would shed the request anyway, and the cap keeps a hostile body from
// allocating gigabytes before admission control ever sees it.
const maxVoters = 1 << 20

// InstanceSpec is the wire form of a problem instance; it matches the
// on-disk schema of core.WriteInstance ({"n", "complete", "edges", "p"}).
type InstanceSpec struct {
	N        int       `json:"n"`
	Complete bool      `json:"complete,omitempty"`
	Edges    [][2]int  `json:"edges,omitempty"`
	P        []float64 `json:"p"`
}

// MechanismSpec names a delegation mechanism. Alpha is the approval margin
// for the mechanisms that take one; the evaluate endpoint's Alphas sweep
// overrides it per point.
type MechanismSpec struct {
	Name  string  `json:"name"`
	Alpha float64 `json:"alpha,omitempty"`
}

// FaultSpec adds election-level faults to an evaluation:
// sink-unavailability and abstention faults repaired by a recovery policy,
// applied to every replication as the sweep point's election.Repair
// (fault.ElectionOptions.Repair). A fault evaluate runs through the same
// sweep as any other and degrades the same way when its deadline cannot
// afford the exact one; its points carry the mean fault footprint in place
// of the structural statistics.
type FaultSpec struct {
	DownRate    float64 `json:"down_rate,omitempty"`
	AbstainRate float64 `json:"abstain_rate,omitempty"`
	Policy      string  `json:"policy"`
	Alpha       float64 `json:"alpha,omitempty"`
}

// EvaluateRequest is the /v1/evaluate body: one instance, one mechanism,
// swept over approval margins. Alphas empty means a single point at
// Mechanism.Alpha.
type EvaluateRequest struct {
	Instance     InstanceSpec  `json:"instance"`
	Mechanism    MechanismSpec `json:"mechanism"`
	Alphas       []float64     `json:"alphas,omitempty"`
	Seed         uint64        `json:"seed"`
	Replications int           `json:"replications,omitempty"`
	// DeadlineMS overrides the server's default per-request deadline,
	// clamped to the server's maximum.
	DeadlineMS int64      `json:"deadline_ms,omitempty"`
	Fault      *FaultSpec `json:"fault,omitempty"`
}

// WhatIfRequest is the /v1/whatif body: an explicit delegation profile to
// score against an instance. Delegations has one entry per voter: the
// delegate's index, or -1 for a direct vote. Deltas, when present, are
// incremental edits applied in order on top of the base (instance,
// delegations) pair; the response scores the post-delta election.
type WhatIfRequest struct {
	Instance    InstanceSpec `json:"instance"`
	Delegations []int        `json:"delegations"`
	Deltas      []DeltaSpec  `json:"deltas,omitempty"`
	DeadlineMS  int64        `json:"deadline_ms,omitempty"`
	// ErrorBudget is the largest certified half-width the client accepts
	// for each probability (prob.Certify). When positive, a normal tier that
	// fits it answers and the exact kernels run only when it does not; the
	// response carries each probability's tier and half-width, and
	// admission prices the request at the ladder's cost estimate instead of
	// the exact DP's. Zero means exact if the deadline affords it, else the
	// normal tiers.
	ErrorBudget float64 `json:"error_budget,omitempty"`
}

// DeltaSpec is the wire form of one incremental edit. Kind names an
// election.DeltaKind: "competency" (voter, p), "repoint" (voter, target),
// "add-voter" (p, edges on explicit graphs, optional target for an
// initial delegation), "remove-voter" (voter), "add-edge"/"remove-edge"
// (voter, target). Target is a pointer so that an omitted field is
// distinguishable from voter 0: omitted means a direct vote for repoint
// and add-voter, and is rejected for the edge kinds.
type DeltaSpec struct {
	Kind   string  `json:"kind"`
	Voter  int     `json:"voter,omitempty"`
	Target *int    `json:"target,omitempty"`
	P      float64 `json:"p,omitempty"`
	Edges  []int   `json:"edges,omitempty"`
}

// maxDeltas caps the delta list per request: deltas describe short edits
// of a base election, and each one rebuilds the instance at parse time.
const maxDeltas = 256

// parseDelta maps one wire delta onto the election type, with the typed
// validation the election layer cannot phrase as an *Error.
func parseDelta(i int, spec *DeltaSpec) (election.Delta, *Error) {
	target := core.NoDelegate
	if spec.Target != nil {
		target = *spec.Target
	}
	d := election.Delta{Voter: spec.Voter, Target: target, P: spec.P, Edges: spec.Edges}
	switch spec.Kind {
	case "competency":
		d.Kind = election.DeltaCompetency
	case "repoint":
		d.Kind = election.DeltaRepoint
	case "add-voter":
		d.Kind = election.DeltaAddVoter
	case "remove-voter":
		d.Kind = election.DeltaRemoveVoter
	case "add-edge", "remove-edge":
		if spec.Target == nil {
			return election.Delta{}, badRequest(CodeBadDelta, "deltas[%d]: %s requires a target", i, spec.Kind)
		}
		d.Kind = election.DeltaAddEdge
		if spec.Kind == "remove-edge" {
			d.Kind = election.DeltaRemoveEdge
		}
	default:
		return election.Delta{}, badRequest(CodeBadDelta, "deltas[%d]: unknown kind %q", i, spec.Kind)
	}
	if d.Kind == election.DeltaCompetency || d.Kind == election.DeltaAddVoter {
		if math.IsNaN(spec.P) || math.IsInf(spec.P, 0) || spec.P < 0 || spec.P > 1 {
			return election.Delta{}, badRequest(CodeBadCompetency, "deltas[%d]: p = %v not in [0,1]", i, spec.P)
		}
	}
	return d, nil
}

// validateInstance checks the spec and builds the immutable instance.
// Competency and edge validation happens here, before graph/core see the
// data, so every rejection carries its typed code.
func validateInstance(spec *InstanceSpec) (*core.Instance, *Error) {
	if spec.N <= 0 {
		return nil, badRequest(CodeBadRequest, "instance.n = %d, want > 0", spec.N)
	}
	if spec.N > maxVoters {
		return nil, badRequest(CodeBadRequest, "instance.n = %d exceeds the maximum %d", spec.N, maxVoters)
	}
	if len(spec.P) != spec.N {
		return nil, badRequest(CodeBadRequest, "instance.p has %d entries for n = %d", len(spec.P), spec.N)
	}
	for i, p := range spec.P {
		if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 || p > 1 {
			return nil, badRequest(CodeBadCompetency, "instance.p[%d] = %v not in [0,1]", i, p)
		}
	}
	var top graph.Topology
	if spec.Complete {
		if len(spec.Edges) > 0 {
			return nil, badRequest(CodeBadRequest, "instance.complete with explicit edges")
		}
		top = graph.NewComplete(spec.N)
	} else {
		seen := make(map[[2]int]bool, len(spec.Edges))
		for _, e := range spec.Edges {
			u, v := e[0], e[1]
			if u < 0 || u >= spec.N || v < 0 || v >= spec.N {
				return nil, badRequest(CodeBadEdge, "edge (%d,%d) out of range [0,%d)", u, v, spec.N)
			}
			if u == v {
				return nil, badRequest(CodeBadEdge, "self-loop at voter %d", u)
			}
			if u > v {
				u, v = v, u
			}
			if seen[[2]int{u, v}] {
				return nil, badRequest(CodeDuplicateEdge, "duplicate edge (%d,%d)", u, v)
			}
			seen[[2]int{u, v}] = true
		}
		g, err := graph.NewGraphFromEdges(spec.N, spec.Edges)
		if err != nil {
			return nil, badRequest(CodeBadEdge, "building topology: %v", err)
		}
		top = g
	}
	in, err := core.NewInstance(top, spec.P)
	if err != nil {
		return nil, badRequest(CodeBadCompetency, "building instance: %v", err)
	}
	return in, nil
}

func validAlpha(a float64) bool {
	return !math.IsNaN(a) && !math.IsInf(a, 0) && a >= 0 && a <= 1
}

// buildMechanism resolves a mechanism name and margin to a concrete
// mechanism value.
func buildMechanism(name string, alpha float64) (mechanism.Mechanism, *Error) {
	switch name {
	case "direct":
		return mechanism.Direct{}, nil
	case "approval-threshold":
		return mechanism.ApprovalThreshold{Alpha: alpha}, nil
	case "greedy-best":
		return mechanism.GreedyBest{Alpha: alpha}, nil
	case "half-neighborhood":
		return mechanism.HalfNeighborhood{Alpha: alpha}, nil
	default:
		return nil, badRequest(CodeBadMechanism, "unknown mechanism %q", name)
	}
}

// parsePolicy resolves a recovery-policy name.
func parsePolicy(name string) (fault.Policy, *Error) {
	switch name {
	case "lose-weight":
		return fault.LoseWeight, nil
	case "fallback-to-direct":
		return fault.FallbackToDirect, nil
	case "redelegate":
		return fault.Redelegate, nil
	default:
		return 0, badRequest(CodeBadRequest, "unknown recovery policy %q", name)
	}
}

// ParsedEvaluate is a validated evaluate request: the instance, one
// mechanism per sweep point, and the engine options the handler will use.
type ParsedEvaluate struct {
	Req        *EvaluateRequest
	Instance   *core.Instance
	Alphas     []float64
	Mechanisms []mechanism.Mechanism
	Policy     fault.Policy
}

// ParseEvaluateRequest decodes and validates an evaluate body. It is the
// whole decode path — the HTTP handler adds only the byte cap — so the fuzz
// target exercises exactly what production traffic hits.
func ParseEvaluateRequest(body []byte) (*ParsedEvaluate, *Error) {
	var req EvaluateRequest
	if aerr := decodeEvaluate(body, &req); aerr != nil {
		return nil, aerr
	}
	in, aerr := validateInstance(&req.Instance)
	if aerr != nil {
		return nil, aerr
	}
	if req.Replications < 0 {
		return nil, badRequest(CodeBadRequest, "replications = %d, want >= 0", req.Replications)
	}
	if req.Replications > 1<<16 {
		return nil, badRequest(CodeBadRequest, "replications = %d exceeds the maximum %d", req.Replications, 1<<16)
	}
	if req.DeadlineMS < 0 {
		return nil, badRequest(CodeBadRequest, "deadline_ms = %d, want >= 0", req.DeadlineMS)
	}
	alphas := req.Alphas
	if len(alphas) == 0 {
		alphas = []float64{req.Mechanism.Alpha}
	}
	if len(alphas) > 256 {
		return nil, badRequest(CodeBadRequest, "alpha sweep of %d points exceeds the maximum 256", len(alphas))
	}
	parsed := &ParsedEvaluate{Req: &req, Instance: in, Alphas: alphas}
	for _, a := range alphas {
		if !validAlpha(a) {
			return nil, badRequest(CodeBadAlpha, "alpha = %v not in [0,1]", a)
		}
		mech, aerr := buildMechanism(req.Mechanism.Name, a)
		if aerr != nil {
			return nil, aerr
		}
		parsed.Mechanisms = append(parsed.Mechanisms, mech)
	}
	if f := req.Fault; f != nil {
		if math.IsNaN(f.DownRate) || f.DownRate < 0 || f.DownRate >= 1 {
			return nil, badRequest(CodeBadRequest, "fault.down_rate = %v not in [0,1)", f.DownRate)
		}
		if math.IsNaN(f.AbstainRate) || f.AbstainRate < 0 || f.AbstainRate >= 1 {
			return nil, badRequest(CodeBadRequest, "fault.abstain_rate = %v not in [0,1)", f.AbstainRate)
		}
		if !validAlpha(f.Alpha) {
			return nil, badRequest(CodeBadAlpha, "fault.alpha = %v not in [0,1]", f.Alpha)
		}
		policy, aerr := parsePolicy(f.Policy)
		if aerr != nil {
			return nil, aerr
		}
		parsed.Policy = policy
	}
	return parsed, nil
}

// ParsedWhatIf is a validated what-if request. FinalInstance/FinalGraph
// are the post-delta election (aliases of Instance/Graph when the request
// carries no deltas), computed at parse time so every structurally invalid
// delta is a typed 400 before admission — the worker only ever sees delta
// lists that apply cleanly. Graph.Delegate is Req.Delegations itself, not a
// copy (the wire's −1 is core.NoDelegate), and nothing mutates either:
// election.PreviewDeltas copies the profile before it edits it. Through
// liquidd's base memo, Req.Instance, Req.Delegations and Instance may be
// shared with other requests that sent the same bytes.
type ParsedWhatIf struct {
	Req      *WhatIfRequest
	Instance *core.Instance
	Graph    *core.DelegationGraph

	Deltas        []election.Delta
	FinalInstance *core.Instance
	FinalGraph    *core.DelegationGraph
}

// ParseWhatIfRequest decodes and validates a what-if body.
func ParseWhatIfRequest(body []byte) (*ParsedWhatIf, *Error) {
	return parseWhatIf(body, nil)
}

// parseWhatIf is ParseWhatIfRequest reading the body's instance and
// delegations through memo, when memo is not nil. A hit stands in for
// decoding and validating its value; a miss sights the value once the value
// itself has passed validation, and the memo stores it from its second
// sighting. Either way the result is the memo-less parse's, bit for bit, or
// the same *Error.
func parseWhatIf(body []byte, memo *baseMemo) (*ParsedWhatIf, *Error) {
	var req WhatIfRequest
	inst := memoValue{memo: memo, close: '}', field: &req.Instance}
	prof := memoValue{memo: memo, close: ']', field: &req.Delegations}
	var aerr *Error
	if memo == nil {
		aerr = decodeWhatIf(body, &req)
	} else {
		aerr = decodeWhatIfThrough(body, &req, &inst, &prof)
	}
	if aerr != nil {
		return nil, aerr
	}
	var in *core.Instance
	if inst.hit != nil {
		in = inst.hit.in
	} else {
		if in, aerr = validateInstance(&req.Instance); aerr != nil {
			return nil, aerr
		}
		memo.put(inst.span, baseEntry{spec: req.Instance, in: in})
	}
	if req.DeadlineMS < 0 {
		return nil, badRequest(CodeBadRequest, "deadline_ms = %d, want >= 0", req.DeadlineMS)
	}
	if math.IsNaN(req.ErrorBudget) || req.ErrorBudget < 0 || req.ErrorBudget > 1 {
		return nil, badRequest(CodeBadRequest, "error_budget = %v not in [0,1]", req.ErrorBudget)
	}
	n := in.N()
	if len(req.Delegations) != n {
		return nil, badRequest(CodeBadRequest, "delegations has %d entries for n = %d", len(req.Delegations), n)
	}
	if prof.hit == nil {
		if aerr := checkDelegations(req.Delegations); aerr != nil {
			return nil, aerr
		}
		memo.put(prof.span, baseEntry{profile: req.Delegations})
	}
	d := &core.DelegationGraph{Delegate: req.Delegations}
	parsed := &ParsedWhatIf{Req: &req, Instance: in, Graph: d, FinalInstance: in, FinalGraph: d}
	if len(req.Deltas) == 0 {
		return parsed, nil
	}
	if len(req.Deltas) > maxDeltas {
		return nil, badRequest(CodeBadRequest, "deltas has %d entries, maximum %d", len(req.Deltas), maxDeltas)
	}
	deltas := make([]election.Delta, len(req.Deltas))
	for i := range req.Deltas {
		dl, aerr := parseDelta(i, &req.Deltas[i])
		if aerr != nil {
			return nil, aerr
		}
		deltas[i] = dl
	}
	fin, fd, err := election.PreviewDeltas(in, d, deltas...)
	if err != nil {
		return nil, badRequest(CodeBadDelta, "applying deltas: %v", err)
	}
	if fin.N() > maxVoters {
		return nil, badRequest(CodeBadRequest, "deltas grow the instance to %d voters, maximum %d", fin.N(), maxVoters)
	}
	parsed.Deltas = deltas
	parsed.FinalInstance, parsed.FinalGraph = fin, fd
	return parsed, nil
}

// checkDelegations checks a profile's own entries: each is −1 (a direct
// vote) or the index of another voter. It only reads the profile, which a
// memo may share between requests, and phrases its errors as
// core.DelegationGraph.SetDelegate does.
func checkDelegations(delegate []int) *Error {
	n := len(delegate)
	for i, j := range delegate {
		switch {
		case j == core.NoDelegate:
		case j < 0 || j >= n:
			return badRequest(CodeBadRequest, "delegations[%d]: %v: edge (%d,%d) out of range [0,%d)", i, core.ErrInvalidDelegation, i, j, n)
		case j == i:
			return badRequest(CodeBadRequest, "delegations[%d]: %v: self-delegation at voter %d", i, core.ErrInvalidDelegation, i)
		}
	}
	return nil
}

// maxBytesError maps the MaxBytesReader rejection to its typed code.
func maxBytesError(err error) *Error {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return badRequest(CodeBodyTooLarge, "request body exceeds %d bytes", mbe.Limit)
	}
	return nil
}
