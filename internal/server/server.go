package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"liquid/internal/core"
	"liquid/internal/election"
	"liquid/internal/fault"
	"liquid/internal/prob"
	"liquid/internal/telemetry"
)

// Config tunes the serving stack. The zero value serves with the defaults
// documented per field.
type Config struct {
	// MaxBody caps request bodies in bytes (default 1 MiB).
	MaxBody int64
	// Shards is the number of workers, which all read one queue (default
	// GOMAXPROCS).
	Shards int
	// QueueDepth sizes that queue at Shards*QueueDepth tasks (default 64),
	// which is also admission's bound on admitted-but-unfinished requests.
	QueueDepth int
	// MaxCost bounds the DP-unit cost of admitted-but-unfinished work
	// (default 1 << 28). See EstimateCost.
	MaxCost int64
	// CostRate calibrates the affordability test: DP units the exact engine
	// is assumed to process per second (default 50e6, deliberately
	// conservative so a request degrades to the certified normal tier early
	// rather than blowing a deadline late).
	CostRate float64
	// DefaultDeadline applies when a request names none (default 5s);
	// MaxDeadline clamps what a request may ask for (default 60s).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// Replications is forwarded to election.Options (default 64). Workers
	// bounds the per-request evaluation parallelism (default 1: the serving
	// layer's parallelism is across requests, not within them).
	Replications int
	Workers      int
	// ChaosHook, when set, runs before each task executes (the worker's
	// index and that worker's task sequence number). Errors are returned as
	// the task's result; panics exercise the recovery path. Test-only.
	ChaosHook func(worker int, seq uint64) error
}

func (c Config) withDefaults() Config {
	if c.MaxBody <= 0 {
		c.MaxBody = 1 << 20
	}
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxCost <= 0 {
		c.MaxCost = 1 << 28
	}
	if c.CostRate <= 0 {
		c.CostRate = 50e6
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 5 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 60 * time.Second
	}
	if c.Replications <= 0 {
		c.Replications = 64
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	return c
}

// Stats is the server's request accounting. Every request the listener
// delivered lands in exactly one bucket:
//
//	Received == Malformed + Shed + Completed + Failed + Expired
//
// at any quiescent point. Load generators check the same identity from the
// outside.
type Stats struct {
	Received  uint64 `json:"received"`
	Malformed uint64 `json:"malformed"`
	Shed      uint64 `json:"shed"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Expired   uint64 `json:"expired"`
}

// Server is the election-evaluation daemon: handlers, admission control,
// and the worker pool. Create with New, serve via Handler, stop with Close.
type Server struct {
	cfg  Config
	adm  *admission
	pool *pool
	mux  *http.ServeMux

	// drainMu guards submission against Close: submitters hold it shared,
	// Close exclusively.
	drainMu  sync.RWMutex
	draining bool

	received  atomic.Uint64
	malformed atomic.Uint64
	completed atomic.Uint64
	failed    atomic.Uint64
	expired   atomic.Uint64

	// memo holds the validated instances and profiles of recent what-if
	// bodies, keyed by their bytes.
	memo *baseMemo

	hLatency      *telemetry.Histogram
	cRequests     *telemetry.Counter
	cWhatIfDeltas *telemetry.Counter
}

// New builds a Server and starts its workers.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	// Admission's bound is the queue's capacity: see admitAndSubmit.
	queue := cfg.Shards * cfg.QueueDepth
	s := &Server{
		cfg:           cfg,
		adm:           newAdmission(queue, cfg.MaxCost),
		pool:          newPool(cfg.Shards, queue, cfg.ChaosHook),
		mux:           http.NewServeMux(),
		memo:          newBaseMemo(),
		hLatency:      telemetry.NewHistogram("server/latency_seconds", 0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10),
		cRequests:     telemetry.NewCounter("server/requests"),
		cWhatIfDeltas: telemetry.NewCounter("server/whatif_deltas"),
	}
	s.mux.HandleFunc("POST /v1/evaluate", s.handleEvaluate)
	s.mux.HandleFunc("POST /v1/whatif", s.handleWhatIf)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)
	return s
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close drains the worker pool: in-flight and queued tasks finish (their
// deadlines still apply), new requests are shed with 503, and the workers
// exit. Safe to call once.
func (s *Server) Close() {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()
	s.pool.close()
}

// Stats returns the current request accounting.
func (s *Server) Stats() Stats {
	return Stats{
		Received:  s.received.Load(),
		Malformed: s.malformed.Load(),
		Shed:      s.adm.shed.Load(),
		Completed: s.completed.Load(),
		Failed:    s.failed.Load(),
		Expired:   s.expired.Load(),
	}
}

// PointResult is one sweep point of an evaluate response: the wire form of
// an election.Result, or of a fault.ElectionResult for requests with a
// fault block, with the point's alpha, certified error bound and P^D tier.
type PointResult struct {
	Mechanism string  `json:"mechanism"`
	Alpha     float64 `json:"alpha"`
	N         int     `json:"n"`
	PM        float64 `json:"pm"`
	PMStdErr  float64 `json:"pm_stderr"`
	PD        float64 `json:"pd"`
	Gain      float64 `json:"gain"`
	GainLo    float64 `json:"gain_lo,omitempty"`
	GainHi    float64 `json:"gain_hi,omitempty"`

	MeanDelegators   float64 `json:"mean_delegators"`
	MeanSinks        float64 `json:"mean_sinks"`
	MeanMaxWeight    float64 `json:"mean_max_weight"`
	MaxMaxWeight     int     `json:"max_max_weight"`
	MeanLongestChain float64 `json:"mean_longest_chain"`

	// Fault-evaluation extras (requests with a fault block).
	Policy          string  `json:"policy,omitempty"`
	MeanDown        float64 `json:"mean_down,omitempty"`
	MeanLost        float64 `json:"mean_lost,omitempty"`
	MeanFellBack    float64 `json:"mean_fell_back,omitempty"`
	MeanRedelegated float64 `json:"mean_redelegated,omitempty"`

	// ErrorBound certifies an approximate point's gain: |gain − gain of the
	// exact sweep on the same seed| <= ErrorBound, the P^D half-width plus
	// the mean of the per-replication P^M half-widths
	// (election.EvaluateSweepCertified).
	ErrorBound float64 `json:"error_bound,omitempty"`

	// PDTier names the tier that produced PD: the cost model's kernel tier
	// ("exact" or "fft") on the exact sweep, "normal" on the approximate
	// one, fault evaluations included. Empty on an exact fault evaluation,
	// whose wire form keeps the fields it had before fault evaluations
	// could degrade, and on the exact sweep above election.ExactDirectMaxN
	// voters, where PD is sampled.
	PDTier string `json:"pd_tier,omitempty"`
}

// EvaluateResponse is the /v1/evaluate reply: one result per alpha point,
// flagged when the deadline could not afford the exact sweep and every
// point was scored by certified normal intervals instead.
type EvaluateResponse struct {
	Results     []PointResult `json:"results"`
	Approximate bool          `json:"approximate,omitempty"`
}

// WhatIfResponse is the /v1/whatif reply: one explicit delegation profile
// scored against its instance. For delta requests every field describes
// the post-delta election, and DeltasApplied echoes the edit count.
type WhatIfResponse struct {
	PM            float64 `json:"pm"`
	PD            float64 `json:"pd"`
	Gain          float64 `json:"gain"`
	Sinks         int     `json:"sinks"`
	MaxWeight     int     `json:"max_weight"`
	TotalWeight   int     `json:"total_weight"`
	Delegators    int     `json:"delegators"`
	LongestChain  int     `json:"longest_chain"`
	DeltasApplied int     `json:"deltas_applied,omitempty"`
	// Approximate is set when a certified normal tier produced PD or PM.
	Approximate bool `json:"approximate,omitempty"`

	// Tier fields, present when the request named an error_budget or the
	// response is approximate: the tier that produced each probability
	// ("exact", "fft" or "normal") and its certified half-width, so a
	// client can machine-check |reported − exact| <= half-width.
	PDTier      string  `json:"pd_tier,omitempty"`
	PDHalfWidth float64 `json:"pd_half_width,omitempty"`
	PMTier      string  `json:"pm_tier,omitempty"`
	PMHalfWidth float64 `json:"pm_half_width,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// The request context is unused on purpose: liveness has no evaluation
	// to cancel. Forwarding r keeps the handler honest under ctxflow rule 4.
	_ = r.Context()
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	_ = r.Context()
	writeJSON(w, http.StatusOK, s.Stats())
}

// handleEvaluate serves /v1/evaluate: decode and validate, derive the
// request deadline, admit or shed, then evaluate on a worker.
func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.received.Add(1)
	s.cRequests.Inc()
	defer func() { s.hLatency.Observe(time.Since(start).Seconds()) }()

	body, aerr := s.readBody(w, r.Body, r.ContentLength)
	if aerr != nil {
		s.malformed.Add(1)
		writeError(w, aerr)
		return
	}
	parsed, aerr := ParseEvaluateRequest(body)
	if aerr != nil {
		s.malformed.Add(1)
		writeError(w, aerr)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.deadline(parsed.Req.DeadlineMS))
	defer cancel()

	reps := parsed.Req.Replications
	if reps == 0 {
		reps = s.cfg.Replications
	}
	cost := int64(len(parsed.Alphas)) * EstimateCost(parsed.Instance.N(), reps, election.DefaultExactCostLimit)

	var resp *EvaluateResponse
	s.dispatch(ctx, w, cost, func(ctx context.Context) error {
		var err error
		resp, err = s.evaluate(ctx, parsed, reps, cost)
		return err
	}, func() { writeJSON(w, http.StatusOK, resp) })
}

// handleWhatIf serves /v1/whatif.
func (s *Server) handleWhatIf(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.received.Add(1)
	s.cRequests.Inc()
	defer func() { s.hLatency.Observe(time.Since(start).Seconds()) }()

	body, aerr := s.readBody(w, r.Body, r.ContentLength)
	if aerr != nil {
		s.malformed.Add(1)
		writeError(w, aerr)
		return
	}
	parsed, aerr := parseWhatIf(body, s.memo)
	if aerr != nil {
		s.malformed.Add(1)
		writeError(w, aerr)
		return
	}
	// Cycles are a property of the request, not of evaluation: resolve the
	// post-delta profile once up front so a cyclic profile is a typed 400,
	// before admission. With no deltas this is the base profile itself. The
	// resolution lives in a pooled resolver, which the worker hands back
	// after scoring; a shed or expired task leaves it to the GC.
	rv := election.GetResolver()
	res, err := rv.Resolve(parsed.FinalGraph, parsed.FinalInstance.CompetencyOrder())
	if err != nil {
		election.PutResolver(rv)
		s.malformed.Add(1)
		writeError(w, badRequest(CodeBadRequest, "resolving delegations: %v", err))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.deadline(parsed.Req.DeadlineMS))
	defer cancel()

	// The exact price decides affordability. Delta requests keep their own
	// cost class (EstimateWhatIfDeltaCost), although they are scored by the
	// same exact kernels as explicit ones.
	exactCost := EstimateCost(parsed.Instance.N(), 1, election.DefaultExactCostLimit)
	if len(parsed.Deltas) > 0 {
		s.cWhatIfDeltas.Inc()
		exactCost = EstimateWhatIfDeltaCost(parsed.FinalInstance.N(), len(parsed.Deltas), election.DefaultExactCostLimit)
	}
	cost := exactCost
	if parsed.Req.ErrorBudget > 0 {
		// Budgeted requests are admitted at the ladder's cost — the
		// admission-visible form of the scale tier's win.
		cost = EstimateLadderCost(parsed.FinalInstance.N(), parsed.Req.ErrorBudget)
	}
	var resp *WhatIfResponse
	s.dispatch(ctx, w, cost, func(ctx context.Context) error {
		defer election.PutResolver(rv)
		var err error
		resp, err = s.whatIf(ctx, parsed, res, exactCost)
		return err
	}, func() { writeJSON(w, http.StatusOK, resp) })
}

// readBody drains the capped request body. length is its declared
// Content-Length (-1 when unknown); a length within the cap sizes one
// buffer for the whole body, where io.ReadAll's repeated growth would
// allocate almost five times the body. The buffer is reserved before the
// body arrives, so the cap, not the bytes sent, bounds what a request can
// make the server hold.
func (s *Server) readBody(w http.ResponseWriter, rc io.ReadCloser, length int64) ([]byte, *Error) {
	var buf bytes.Buffer
	if length > 0 && length <= s.cfg.MaxBody {
		buf.Grow(int(length) + bytes.MinRead) // ReadFrom wants MinRead spare bytes to see EOF
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, rc, s.cfg.MaxBody)); err != nil {
		if aerr := maxBytesError(err); aerr != nil {
			return nil, aerr
		}
		return nil, badRequest(CodeBadRequest, "reading body: %v", err)
	}
	return buf.Bytes(), nil
}

// deadline resolves a request's deadline_ms against the server bounds. It
// clamps in milliseconds before converting: deadline_ms may be any int64,
// and its product with time.Millisecond wraps from 2^63 ns upward.
func (s *Server) deadline(ms int64) time.Duration {
	d := s.cfg.DefaultDeadline
	if ms > 0 {
		d = s.cfg.MaxDeadline
		if ms <= d.Milliseconds() {
			d = time.Duration(ms) * time.Millisecond
		}
	}
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	return d
}

// dispatch pushes fn through admission and the worker pool, accounts the
// outcome, and writes the response: ok on success, a typed error
// otherwise. It returns by ctx's deadline no matter what the workers do.
func (s *Server) dispatch(ctx context.Context, w http.ResponseWriter, cost int64, fn func(context.Context) error, ok func()) {
	// The task's reservation is released by the worker (via task.release)
	// once it finishes or skips the task — not when this handler returns,
	// because an abandoned task still occupies a worker.
	t := s.newTask(ctx, cost, fn)
	if status, admitted := s.admitAndSubmit(t, cost); !admitted {
		s.shedResponse(w, status)
		return
	}
	select {
	case err := <-t.done:
		s.writeOutcome(w, err, ok)
	case <-ctx.Done():
		s.expired.Add(1)
		writeError(w, &Error{Code: CodeDeadlineExceeded, Message: "deadline expired before evaluation completed", Status: http.StatusGatewayTimeout})
	}
}

// admitAndSubmit applies the admission gate and queues the task, all under
// the drain lock so Close cannot close the queue between the two steps. On
// refusal it returns the shed status: 503 while draining, 429 when
// admission refuses.
func (s *Server) admitAndSubmit(t *task, cost int64) (status int, admitted bool) {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining {
		s.adm.shed.Add(1)
		s.adm.cShed.Inc()
		return http.StatusServiceUnavailable, false
	}
	if !s.adm.admit(cost) {
		return http.StatusTooManyRequests, false
	}
	// The send never blocks. Admission holds the admitted-but-unfinished
	// count at or below Shards*QueueDepth, the queue's capacity, and a task
	// leaves the queue before its worker releases the reservation. So every
	// queued task is admitted and unfinished, and this one still fits.
	s.pool.tasks <- t
	return 0, true
}

// newTask wraps fn with the admission release.
func (s *Server) newTask(ctx context.Context, cost int64, fn func(context.Context) error) *task {
	return &task{
		ctx:     ctx,
		run:     fn,
		release: func() { s.adm.release(cost) },
		done:    make(chan error, 1),
	}
}

// writeOutcome classifies a finished task's error and writes the response.
func (s *Server) writeOutcome(w http.ResponseWriter, err error, ok func()) {
	switch {
	case err == nil:
		s.completed.Add(1)
		ok()
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		s.expired.Add(1)
		writeError(w, &Error{Code: CodeDeadlineExceeded, Message: "deadline expired during evaluation", Status: http.StatusGatewayTimeout})
	case errors.Is(err, core.ErrCyclicDelegation):
		// A realized cycle is a property of the request — at alpha = 0
		// tied neighbours approve each other — so it is refused like the
		// cyclic what-if profile the handler rejects before admission.
		s.malformed.Add(1)
		writeError(w, badRequest(CodeBadRequest, "resolving delegations: %v", err))
	default:
		s.failed.Add(1)
		if aerr, okErr := err.(*Error); okErr {
			writeError(w, aerr)
		} else {
			writeError(w, &Error{Code: CodeInternal, Message: err.Error(), Status: http.StatusInternalServerError})
		}
	}
}

func (s *Server) shedResponse(w http.ResponseWriter, status int) {
	w.Header().Set("Retry-After", "1")
	writeError(w, &Error{Code: CodeShed, Message: "admission budget exhausted; retry later", Status: status})
}

// evaluate runs one evaluate request on a worker: the exact sweep
// when the deadline budget affords its DP-unit cost at the calibrated rate,
// otherwise the certified sweep, which draws the same realizations and
// scores them by certified normal intervals; with no budget at all, the
// deadline error. A fault block only adds its repair to every point, so a
// fault evaluate runs, and degrades, like any other.
func (s *Server) evaluate(ctx context.Context, parsed *ParsedEvaluate, reps int, cost int64) (*EvaluateResponse, error) {
	opts := election.Options{
		Replications: reps,
		Workers:      s.cfg.Workers,
		Seed:         parsed.Req.Seed,
	}
	budget := s.budget(ctx)
	if budget <= 0 {
		return nil, context.DeadlineExceeded
	}
	plan, err := election.NewPlan(parsed.Instance, opts)
	if err != nil {
		return nil, err
	}
	plan.PrewarmApproval(parsed.Alphas...)
	var repair election.Repair
	if f := parsed.Req.Fault; f != nil {
		fo := fault.ElectionOptions{DownRate: f.DownRate, AbstainRate: f.AbstainRate, Policy: parsed.Policy, Alpha: f.Alpha}
		if repair, err = fo.Repair(parsed.Instance); err != nil {
			return nil, err
		}
	}
	points := make([]election.SweepPoint, len(parsed.Mechanisms))
	for i, mech := range parsed.Mechanisms {
		points[i] = election.SweepPoint{Mechanism: mech, Seed: parsed.Req.Seed, Replications: reps, Repair: repair}
	}
	sweep := election.EvaluateSweep
	resp := &EvaluateResponse{Approximate: !s.affords(cost, budget)}
	if resp.Approximate {
		sweep = election.EvaluateSweepCertified
	}
	results, err := sweep(ctx, plan, points)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		pt := exactPoint(res, parsed.Alphas[i])
		if repair != nil {
			pt = faultPoint(res, parsed.Alphas[i], parsed.Policy)
		}
		if resp.Approximate {
			pt.ErrorBound = res.PDHalfWidth + res.PMHalfWidth
			pt.PDTier = prob.TierNormal.String()
		}
		resp.Results = append(resp.Results, pt)
	}
	return resp, nil
}

// whatIf scores one explicit delegation profile, always the post-delta
// election, which request parsing has already built and resolved. The
// exact evaluators, the memoized exact kernels, exist only when the
// deadline affords the request's exact price.
func (s *Server) whatIf(ctx context.Context, parsed *ParsedWhatIf, res *core.Resolution, exactCost int64) (*WhatIfResponse, error) {
	budget := s.budget(ctx)
	if budget <= 0 {
		return nil, context.DeadlineExceeded
	}
	in := parsed.FinalInstance
	resp := &WhatIfResponse{
		Sinks:         len(res.Sinks),
		MaxWeight:     res.MaxWeight,
		TotalWeight:   res.TotalWeight,
		Delegators:    res.Delegators,
		LongestChain:  res.LongestChain,
		DeltasApplied: len(parsed.Deltas),
	}
	var pdExact, pmExact func() (float64, error)
	if s.affords(exactCost, budget) {
		pdExact = func() (float64, error) { return election.DirectProbabilityExact(in) }
		pmExact = func() (float64, error) { return election.ResolutionProbabilityExact(in, res) }
	}
	if err := resp.certify(parsed.Req.ErrorBudget, in, res, pdExact, pmExact); err != nil {
		return nil, err
	}
	return resp, nil
}

// certify fills the response's probabilities. P^D and P^M each go through
// prob.Certify under the request's error budget, with their certified
// normal tiers (election.CertifyDirect, election.CertifyResolution) and the
// given exact evaluators, nil when unaffordable. An exact P^D carries the
// kernel tier the cost model ran it on; an exact P^M is labelled exact. A
// budget no tier meets is not an error: the tightest certified interval is
// served with its half-width. Tier fields are set when the request named a
// budget or a normal tier answered, so an unbudgeted exact answer is the
// bare pair, byte-identical to offline exact scoring.
func (resp *WhatIfResponse) certify(eb float64, in *core.Instance, res *core.Resolution, pdExact, pmExact func() (float64, error)) error {
	pd, err := prob.Certify(eb,
		func() (prob.CertifiedInterval, error) { return election.CertifyDirect(in), nil },
		exactTier(pdExact, func(v float64) prob.CertifiedInterval { return prob.KernelInterval(in.N(), v) }))
	if err != nil && !errors.Is(err, prob.ErrBudgetInfeasible) {
		return err
	}
	pm, err := prob.Certify(eb,
		func() (prob.CertifiedInterval, error) { return election.CertifyResolution(in, res), nil },
		exactTier(pmExact, func(v float64) prob.CertifiedInterval { return prob.CertifiedInterval{Point: v, Tier: prob.TierExact} }))
	if err != nil && !errors.Is(err, prob.ErrBudgetInfeasible) {
		return err
	}
	resp.PM, resp.PD, resp.Gain = pm.Point, pd.Point, pm.Point-pd.Point
	resp.Approximate = pm.Tier == prob.TierNormal || pd.Tier == prob.TierNormal
	if eb > 0 || resp.Approximate {
		resp.PDTier, resp.PDHalfWidth = pd.Tier.String(), pd.HalfWidth
		resp.PMTier, resp.PMHalfWidth = pm.Tier.String(), pm.HalfWidth
	}
	return nil
}

// exactTier lifts an exact evaluator into prob.Certify's form, labelling
// its value; a nil evaluator (unaffordable) stays nil.
func exactTier(eval func() (float64, error), label func(float64) prob.CertifiedInterval) func() (prob.CertifiedInterval, error) {
	if eval == nil {
		return nil
	}
	return func() (prob.CertifiedInterval, error) {
		v, err := eval()
		return label(v), err
	}
}

// budget is the wall-clock time remaining before ctx's deadline.
func (s *Server) budget(ctx context.Context) time.Duration {
	deadline, ok := ctx.Deadline()
	if !ok {
		return s.cfg.MaxDeadline
	}
	return time.Until(deadline)
}

// affords reports whether a DP-unit cost fits a time budget at the
// calibrated rate, with a 20% safety margin for everything the cost model
// does not see (encode, queueing noise, allocator).
func (s *Server) affords(cost int64, budget time.Duration) bool {
	return float64(cost)/s.cfg.CostRate <= 0.8*budget.Seconds()
}

// exactPoint projects an election.Result onto the wire form. PDTier names
// the kernel tier only when P^D was computed exactly: above
// election.ExactDirectMaxN the engine samples it, and a tier label would
// promise an accuracy the sample does not have.
func exactPoint(res *election.Result, alpha float64) PointResult {
	pt := PointResult{
		Mechanism:        res.Mechanism,
		Alpha:            alpha,
		N:                res.N,
		PM:               res.PM,
		PMStdErr:         res.PMStdErr,
		PD:               res.PD,
		Gain:             res.Gain,
		GainLo:           res.GainLo,
		GainHi:           res.GainHi,
		MeanDelegators:   res.MeanDelegators,
		MeanSinks:        res.MeanSinks,
		MeanMaxWeight:    res.MeanMaxWeight,
		MaxMaxWeight:     res.MaxMaxWeight,
		MeanLongestChain: res.MeanLongestChain,
	}
	if res.N <= election.ExactDirectMaxN {
		pt.PDTier = prob.ClassifyExactTier(res.N).String()
	}
	return pt
}

// faultPoint projects a repaired election.Result onto the wire form fault
// evaluations have always had: the probabilities and the mean fault
// footprint under the policy, without the structural statistics or the
// exact sweep's kernel tier.
func faultPoint(res *election.Result, alpha float64, policy fault.Policy) PointResult {
	return PointResult{
		Mechanism: res.Mechanism, Alpha: alpha, N: res.N,
		PM: res.PM, PMStdErr: res.PMStdErr, PD: res.PD, Gain: res.Gain,
		Policy: policy.String(), MeanDown: res.MeanDown, MeanLost: res.MeanLost,
		MeanFellBack: res.MeanFellBack, MeanRedelegated: res.MeanRedelegated,
	}
}

// writeJSON writes v as the response body. encoding/json's shortest
// round-trip float form makes the bytes deterministic, which is what lets
// clients diff completed responses against offline evaluation.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		w.WriteHeader(http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(data)
	_, _ = w.Write([]byte{'\n'})
}

type errorEnvelope struct {
	Error *Error `json:"error"`
}

func writeError(w http.ResponseWriter, aerr *Error) {
	writeJSON(w, aerr.Status, errorEnvelope{Error: aerr})
}
