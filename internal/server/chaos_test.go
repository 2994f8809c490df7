package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"liquid/internal/core"
	"liquid/internal/election"
	"liquid/internal/fault"
	"liquid/internal/mechanism"
	"liquid/internal/rng"
	"liquid/internal/server"
)

// TestChaos drives the daemon at twice its admission budget while a fault
// plan crashes and partitions the workers, and asserts the three
// serving invariants:
//
//  1. no request outlives its deadline beyond a drain grace,
//  2. the client-observed outcome counts match the server's accounting
//     exactly, and their sum is exactly the number of requests sent,
//  3. every completed exact response is bit-identical to offline
//     evaluation of the same request.
func TestChaos(t *testing.T) {
	const (
		workers    = 4
		queueDepth = 2
		n          = 30
		requests   = 60 // budget is workers*queueDepth = 8 concurrent
		deadline   = 5 * time.Second
		grace      = 3 * time.Second
	)

	in, instJSON := testInstance(t, n)

	// The chaos schedule comes from the fault package's own sampler: workers
	// stand in for nodes, the worker's task sequence (mod the crash window)
	// for rounds. A "crashed" worker panics on the task — exercising the
	// typed internal_panic 500 — and a cut between a worker and its neighbor
	// returns a plain error, which is final and answers a typed internal
	// 500.
	plan, err := fault.SamplePlan(workers, fault.PlanParams{
		CrashRate:     0.5,
		CrashWindow:   30,
		PartitionSize: 2,
		PartitionFrom: 5,
		PartitionHeal: 20,
	}, rng.New(99).DeriveString("chaos"))
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, server.Config{
		Shards:     workers,
		QueueDepth: queueDepth,
		Workers:    1,
		ChaosHook: func(worker int, seq uint64) error {
			round := int(seq % 30)
			if plan.Crashed(worker, round) {
				panic(fmt.Sprintf("chaos: worker %d crashed at round %d", worker, round))
			}
			if plan.Cut(worker, (worker+1)%workers, round) {
				return fmt.Errorf("chaos partition at worker %d round %d", worker, round)
			}
			return nil
		},
	})

	// Whatif requests all carry the same profile; precompute the expected
	// exact body once.
	delegations := make([]int, n)
	for i := range delegations {
		if i < 10 {
			delegations[i] = n - 1
		} else {
			delegations[i] = -1
		}
	}
	delegJSON, err := json.Marshal(delegations)
	if err != nil {
		t.Fatal(err)
	}
	wantWhatIf := offlineWhatIf(t, in, delegations)

	type outcome struct {
		kind    string // evaluate | fault | whatif | malformed
		seed    int
		status  int
		body    []byte
		elapsed time.Duration
		err     error
	}
	results := make([]outcome, requests)
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		seed := 1000 + i
		var kind, body string
		switch i % 5 {
		case 0, 1:
			kind = "evaluate"
			body = fmt.Sprintf(`{"instance": %s, "mechanism": {"name": "approval-threshold", "alpha": 0.1}, "seed": %d, "replications": 8, "deadline_ms": %d}`,
				instJSON, seed, deadline.Milliseconds())
		case 2:
			kind = "fault"
			body = fmt.Sprintf(`{"instance": %s, "mechanism": {"name": "greedy-best", "alpha": 0.05}, "seed": %d, "replications": 8, "deadline_ms": %d, "fault": {"policy": "fallback-to-direct", "down_rate": 0.2}}`,
				instJSON, seed, deadline.Milliseconds())
		case 3:
			kind = "whatif"
			body = fmt.Sprintf(`{"instance": %s, "delegations": %s, "deadline_ms": %d}`,
				instJSON, delegJSON, deadline.Milliseconds())
		default:
			kind = "malformed"
			body = fmt.Sprintf(`{"instance": {"n": %d}, "mech`, i)
		}
		path := "/v1/evaluate"
		if kind == "whatif" {
			path = "/v1/whatif"
		}
		wg.Add(1)
		go func(i int, kind, path, body string, seed int) {
			defer wg.Done()
			start := time.Now()
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				results[i] = outcome{kind: kind, seed: seed, err: err, elapsed: time.Since(start)}
				return
			}
			data, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			results[i] = outcome{kind: kind, seed: seed, status: resp.StatusCode, body: data, elapsed: time.Since(start), err: err}
		}(i, kind, path, body, seed)
	}
	wg.Wait()

	// Invariant 1: the deadline held for every request.
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("request %d (%s): transport error %v", i, r.kind, r.err)
		}
		if r.elapsed > deadline+grace {
			t.Errorf("request %d (%s) took %v, past deadline %v + grace %v", i, r.kind, r.elapsed, deadline, grace)
		}
	}

	// Invariant 2: client-side outcome counts equal the server's accounting
	// exactly, and the taxonomy is exhaustive.
	var got server.Stats
	for i, r := range results {
		got.Received++
		switch r.status {
		case http.StatusOK:
			got.Completed++
		case http.StatusBadRequest:
			got.Malformed++
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			got.Shed++
		case http.StatusInternalServerError:
			got.Failed++
		case http.StatusGatewayTimeout:
			got.Expired++
		default:
			t.Fatalf("request %d (%s): unclassifiable status %d: %s", i, r.kind, r.status, r.body)
		}
	}
	if st := srv.Stats(); st != got {
		t.Fatalf("server accounting %+v != client-observed %+v", st, got)
	}
	if total := got.Malformed + got.Shed + got.Completed + got.Failed + got.Expired; total != requests {
		t.Fatalf("outcomes sum to %d, want %d sent", total, requests)
	}
	t.Logf("chaos outcomes: %+v", got)

	// Invariant 3: completed responses are bit-identical to offline
	// evaluation of the same request.
	for i, r := range results {
		if r.status != http.StatusOK {
			continue
		}
		var want []byte
		switch r.kind {
		case "evaluate":
			want = offlineEvaluate(t, in, r.seed)
		case "fault":
			want = offlineFault(t, in, r.seed)
		case "whatif":
			want = wantWhatIf
		}
		if !bytes.Equal(r.body, want) {
			t.Errorf("request %d (%s, seed %d) differs from offline evaluation:\n got: %s\nwant: %s",
				i, r.kind, r.seed, r.body, want)
		}
	}
}

// offlineEvaluate reproduces the exact /v1/evaluate response bytes for the
// chaos test's plain-evaluate request shape.
func offlineEvaluate(t *testing.T, in *core.Instance, seed int) []byte {
	t.Helper()
	res, err := election.EvaluateMechanism(t.Context(), in, mechanism.ApprovalThreshold{Alpha: 0.1}, election.Options{
		Replications: 8, Seed: uint64(seed), Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return marshalLine(t, server.EvaluateResponse{Results: []server.PointResult{{
		Mechanism: res.Mechanism, Alpha: 0.1, N: res.N,
		PM: res.PM, PMStdErr: res.PMStdErr, PD: res.PD,
		Gain: res.Gain, GainLo: res.GainLo, GainHi: res.GainHi,
		MeanDelegators: res.MeanDelegators, MeanSinks: res.MeanSinks,
		MeanMaxWeight: res.MeanMaxWeight, MaxMaxWeight: res.MaxMaxWeight,
		MeanLongestChain: res.MeanLongestChain,
		PDTier:           "exact",
	}}})
}

// offlineFault reproduces the exact fault-block response bytes.
func offlineFault(t *testing.T, in *core.Instance, seed int) []byte {
	t.Helper()
	results, err := fault.EvaluateSweep(t.Context(), in, []fault.SweepPoint{{
		Mechanism: mechanism.GreedyBest{Alpha: 0.05},
		Opts: fault.ElectionOptions{
			Options:  election.Options{Replications: 8, Seed: uint64(seed), Workers: 1},
			DownRate: 0.2,
			Policy:   fault.FallbackToDirect,
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	res := results[0]
	return marshalLine(t, server.EvaluateResponse{Results: []server.PointResult{{
		Mechanism: res.Mechanism, Alpha: 0.05, N: res.N,
		PM: res.PM, PMStdErr: res.PMStdErr, PD: res.PD, Gain: res.Gain,
		Policy:   res.Policy.String(),
		MeanDown: res.MeanDown, MeanLost: res.MeanLost,
		MeanFellBack: res.MeanFellBack, MeanRedelegated: res.MeanRedelegated,
	}}})
}

// offlineWhatIf reproduces the exact /v1/whatif response bytes.
func offlineWhatIf(t *testing.T, in *core.Instance, delegations []int) []byte {
	t.Helper()
	d := core.NewDelegationGraph(in.N())
	for v, to := range delegations {
		if to == core.NoDelegate {
			continue
		}
		if err := d.SetDelegate(v, to); err != nil {
			t.Fatal(err)
		}
	}
	res, err := d.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	pm, err := election.ResolutionProbabilityExact(in, res)
	if err != nil {
		t.Fatal(err)
	}
	pd, err := election.DirectProbabilityExact(in)
	if err != nil {
		t.Fatal(err)
	}
	return marshalLine(t, server.WhatIfResponse{
		PM: pm, PD: pd, Gain: pm - pd,
		Sinks: len(res.Sinks), MaxWeight: res.MaxWeight, TotalWeight: res.TotalWeight,
		Delegators: res.Delegators, LongestChain: res.LongestChain,
	})
}

func marshalLine(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// TestChaosDrain closes the server mid-load and asserts the drain is
// clean: already-admitted work completes or expires, late arrivals shed
// with 503, and the accounting identity still holds.
func TestChaosDrain(t *testing.T) {
	_, instJSON := testInstance(t, 10)
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	s := server.New(server.Config{
		Shards:     2,
		QueueDepth: 2,
		ChaosHook: func(int, uint64) error {
			started <- struct{}{}
			<-release
			return nil
		},
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	body := fmt.Sprintf(`{"instance": %s, "mechanism": {"name": "direct"}, "deadline_ms": 5000}`, instJSON)
	inflight := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(body))
			if err != nil {
				inflight <- -1
				return
			}
			resp.Body.Close()
			inflight <- resp.StatusCode
		}()
	}
	<-started
	<-started

	// Close concurrently: it blocks until the workers drain, which they
	// cannot until released.
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()

	// Draining begins immediately even while Close blocks on the pool. A
	// probe racing ahead of the draining flag can be admitted and queued
	// behind the blocked workers, so probes carry a short deadline: they
	// expire (504) or are shed by admission (429) until the flag lands and
	// they shed with 503.
	probe := fmt.Sprintf(`{"instance": %s, "mechanism": {"name": "direct"}, "deadline_ms": 50}`, instJSON)
	deadline := time.After(5 * time.Second)
	for {
		resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(probe))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		select {
		case <-deadline:
			t.Fatal("server never started shedding 503 after Close")
		case <-time.After(5 * time.Millisecond):
		}
	}

	close(release)
	for i := 0; i < 2; i++ {
		if status := <-inflight; status != http.StatusOK {
			t.Fatalf("in-flight request finished %d, want 200 across drain", status)
		}
	}
	<-closed

	st := s.Stats()
	if st.Completed != 2 {
		t.Fatalf("stats = %+v, want the 2 admitted requests completed", st)
	}
	if st.Received != st.Malformed+st.Shed+st.Completed+st.Failed+st.Expired {
		t.Fatalf("accounting identity broken: %+v", st)
	}
}
