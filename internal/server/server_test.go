package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"liquid/internal/core"
	"liquid/internal/election"
	"liquid/internal/fault"
	"liquid/internal/graph"
	"liquid/internal/mechanism"
	"liquid/internal/rng"
	"liquid/internal/server"
	"liquid/internal/telemetry"
)

// newTestServer boots a Server behind httptest and registers teardown.
func newTestServer(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	s := server.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func post(t *testing.T, url, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp, data
}

func errorCode(t *testing.T, data []byte) string {
	t.Helper()
	var env struct {
		Error *server.Error `json:"error"`
	}
	if err := json.Unmarshal(data, &env); err != nil || env.Error == nil {
		t.Fatalf("not an error envelope: %s", data)
	}
	return env.Error.Code
}

func testInstance(t *testing.T, n int) (*core.Instance, string) {
	t.Helper()
	ps := make([]float64, n)
	spec := make([]string, n)
	for i := range ps {
		ps[i] = 0.4 + 0.5*float64(i)/float64(n)
		spec[i] = fmt.Sprintf("%g", ps[i])
	}
	in, err := core.NewInstance(graph.NewComplete(n), ps)
	if err != nil {
		t.Fatal(err)
	}
	return in, fmt.Sprintf(`{"n": %d, "complete": true, "p": [%s]}`, n, strings.Join(spec, ","))
}

// TestEvaluateBitIdenticalToOffline is the serving layer's core contract: a
// completed exact response carries byte-for-byte the same numbers as the
// offline evaluator with the same seed and options. An exact fault evaluate
// is held to the fault engine's own entry, fault.EvaluateSweep, with the
// daemon's per-request options (one worker).
func TestEvaluateBitIdenticalToOffline(t *testing.T) {
	in, instJSON := testInstance(t, 25)
	_, ts := newTestServer(t, server.Config{})

	alphas := []float64{0, 0.05, 0.1}
	approval := server.EvaluateResponse{}
	for _, a := range alphas {
		res, err := election.EvaluateMechanism(t.Context(), in, mechanism.ApprovalThreshold{Alpha: a}, election.Options{
			Replications: 16, Seed: 7, Workers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		approval.Results = append(approval.Results, server.PointResult{
			Mechanism: res.Mechanism, Alpha: a, N: res.N,
			PM: res.PM, PMStdErr: res.PMStdErr, PD: res.PD,
			Gain: res.Gain, GainLo: res.GainLo, GainHi: res.GainHi,
			MeanDelegators: res.MeanDelegators, MeanSinks: res.MeanSinks,
			MeanMaxWeight: res.MeanMaxWeight, MaxMaxWeight: res.MaxMaxWeight,
			MeanLongestChain: res.MeanLongestChain,
			PDTier:           "exact",
		})
	}

	faulty, err := fault.EvaluateSweep(t.Context(), in, []fault.SweepPoint{{
		Mechanism: mechanism.GreedyBest{Alpha: 0.05},
		Opts: fault.ElectionOptions{
			Options:  election.Options{Replications: 16, Seed: 7, Workers: 1},
			DownRate: 0.2, Policy: fault.FallbackToDirect,
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	res := faulty[0]
	faultResp := server.EvaluateResponse{Results: []server.PointResult{{
		Mechanism: res.Mechanism, Alpha: 0.05, N: res.N,
		PM: res.PM, PMStdErr: res.PMStdErr, PD: res.PD, Gain: res.Gain,
		Policy: res.Policy.String(), MeanDown: res.MeanDown, MeanLost: res.MeanLost,
		MeanFellBack: res.MeanFellBack, MeanRedelegated: res.MeanRedelegated,
	}}}

	for _, tc := range []struct {
		name string
		body string
		want server.EvaluateResponse
	}{
		{"approval-threshold sweep", `"mechanism": {"name": "approval-threshold"}, "alphas": [0, 0.05, 0.1]`, approval},
		{"fault evaluate", `"mechanism": {"name": "greedy-best", "alpha": 0.05}, "fault": {"policy": "fallback-to-direct", "down_rate": 0.2}`, faultResp},
	} {
		body := fmt.Sprintf(`{"instance": %s, %s, "seed": 7, "replications": 16}`, instJSON, tc.body)
		resp, data := post(t, ts.URL, "/v1/evaluate", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d: %s", tc.name, resp.StatusCode, data)
		}
		want, err := json.Marshal(tc.want)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		if !bytes.Equal(data, want) {
			t.Fatalf("%s: response differs from offline evaluation:\n got: %s\nwant: %s", tc.name, data, want)
		}
	}
}

// TestEvaluateSampledPDHasNoTier pins pd_tier above the exact P^D cutoff:
// one voter past election.ExactDirectMaxN the engine samples P^D, so the
// exact rung's response must not label it with a kernel tier, whose
// accuracy a Monte-Carlo estimate does not have. The request asks for the
// longest deadline the server allows: the test asserts the tier label, not
// latency, and under the race detector the evaluate can outlast the 5 s
// default.
func TestEvaluateSampledPDHasNoTier(t *testing.T) {
	n := election.ExactDirectMaxN + 1
	spec := make([]string, n)
	for i := range spec {
		spec[i] = fmt.Sprintf("%g", 0.49+0.02*float64(i)/float64(n))
	}
	_, ts := newTestServer(t, server.Config{})
	body := fmt.Sprintf(`{"instance": {"n": %d, "complete": true, "p": [%s]}, "mechanism": {"name": "approval-threshold", "alpha": 0.05}, "seed": 1, "replications": 2, "deadline_ms": 60000}`, n, strings.Join(spec, ","))
	resp, data := post(t, ts.URL, "/v1/evaluate", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	var got server.EvaluateResponse
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Approximate || len(got.Results) != 1 {
		t.Fatalf("want one exact-rung result, got %s", data)
	}
	if tier := got.Results[0].PDTier; tier != "" {
		t.Fatalf("n=%d: sampled P^D labelled pd_tier %q", n, tier)
	}
}

// TestEvaluateApproximateDegradation starves the cost rate so the daemon
// answers from the certified sweep.
func TestEvaluateApproximateDegradation(t *testing.T) {
	in, instJSON := testInstance(t, 25)
	_, ts := newTestServer(t, server.Config{CostRate: 0.001})

	body := fmt.Sprintf(`{"instance": %s, "mechanism": {"name": "approval-threshold", "alpha": 0.1}, "seed": 3, "replications": 8}`, instJSON)
	resp, data := post(t, ts.URL, "/v1/evaluate", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	var got server.EvaluateResponse
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Approximate {
		t.Fatal("response not flagged approximate")
	}
	if len(got.Results) != 1 || got.Results[0].ErrorBound <= 0 || got.Results[0].ErrorBound > 1 || got.Results[0].PDTier != "normal" {
		t.Fatalf("results = %+v, want one normal-tier point with a certified bound in (0,1]", got.Results)
	}

	// The numbers must match the offline certified sweep exactly.
	plan, err := election.NewPlan(in, election.Options{Replications: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	results, err := election.EvaluateSweepCertified(t.Context(), plan, []election.SweepPoint{{Mechanism: mechanism.ApprovalThreshold{Alpha: 0.1}, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	res := results[0]
	if got.Results[0].PM != res.PM || got.Results[0].PD != res.PD || got.Results[0].ErrorBound != res.PDHalfWidth+res.PMHalfWidth {
		t.Fatalf("approximate point %+v differs from offline %+v", got.Results[0], res)
	}
}

// TestFaultEvaluateDegrades starves the cost rate so that fault evaluates,
// like plain ones, answer from the certified sweep: approximate, with
// pd_tier "normal" and a certified error_bound on every point. The served
// numbers are the offline certified sweep's with the fault block's repair,
// bit for bit. That sweep repairs the exact sweep's realizations, so the
// mean fault footprint equals the exact answer's bit for bit, and pm and pd
// lie within their half-widths of the exact answer's. The exact answer
// keeps the fault wire form: no tier, no bound.
func TestFaultEvaluateDegrades(t *testing.T) {
	_, exact := newTestServer(t, server.Config{})
	_, starved := newTestServer(t, server.Config{CostRate: 0.001})
	alphas := []float64{0.05, 0.1}
	for _, n := range []int{25, 101, 500} {
		in, instJSON := testInstance(t, n)
		for _, down := range []float64{0, 0.2, 0.6, 0.95} {
			for _, policy := range fault.Policies() {
				name := fmt.Sprintf("n=%d down=%v %v", n, down, policy)
				body := fmt.Sprintf(`{"instance": %s, "mechanism": {"name": "approval-threshold"}, "alphas": [0.05, 0.1], "seed": 5, "replications": 8, "fault": {"policy": %q, "down_rate": %v, "alpha": 0.05}}`,
					instJSON, policy, down)
				want := evaluateOK(t, exact.URL, body)
				got := evaluateOK(t, starved.URL, body)
				if want.Approximate || !got.Approximate || len(got.Results) != len(alphas) || len(want.Results) != len(alphas) {
					t.Fatalf("%s: exact approximate=%v, starved approximate=%v, %d/%d points",
						name, want.Approximate, got.Approximate, len(want.Results), len(got.Results))
				}

				plan, err := election.NewPlan(in, election.Options{Replications: 8, Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				repair, err := fault.ElectionOptions{DownRate: down, Policy: policy, Alpha: 0.05}.Repair(in)
				if err != nil {
					t.Fatal(err)
				}
				points := make([]election.SweepPoint, len(alphas))
				for i, a := range alphas {
					points[i] = election.SweepPoint{Mechanism: mechanism.ApprovalThreshold{Alpha: a}, Seed: 5, Repair: repair}
				}
				certified, err := election.EvaluateSweepCertified(t.Context(), plan, points)
				if err != nil {
					t.Fatal(err)
				}
				for i, g := range got.Results {
					w, c := want.Results[i], certified[i]
					if w.PDTier != "" || w.ErrorBound != 0 {
						t.Fatalf("%s: exact fault point %+v carries tier fields", name, w)
					}
					if g.PDTier != "normal" || g.ErrorBound <= 0 || g.ErrorBound > 1 {
						t.Fatalf("%s: point %+v, want pd_tier normal and an error_bound in (0, 1]", name, g)
					}
					if g.PM != c.PM || g.PD != c.PD || g.ErrorBound != c.PDHalfWidth+c.PMHalfWidth {
						t.Fatalf("%s: served point %+v differs from offline certified %+v", name, g, c)
					}
					if g.Policy != w.Policy || g.MeanDown != w.MeanDown || g.MeanLost != w.MeanLost ||
						g.MeanFellBack != w.MeanFellBack || g.MeanRedelegated != w.MeanRedelegated {
						t.Fatalf("%s: fault footprint %+v differs from the exact answer's %+v", name, g, w)
					}
					if math.Abs(g.PD-w.PD) > c.PDHalfWidth || math.Abs(g.PM-w.PM) > c.PMHalfWidth {
						t.Fatalf("%s: pm %v ± %v, pd %v ± %v miss exact pm %v, pd %v",
							name, g.PM, c.PMHalfWidth, g.PD, c.PDHalfWidth, w.PM, w.PD)
					}
				}
			}
		}
	}
}

// evaluateOK posts an evaluate body and decodes its 200 answer.
func evaluateOK(t *testing.T, url, body string) server.EvaluateResponse {
	t.Helper()
	resp, data := post(t, url, "/v1/evaluate", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	var got server.EvaluateResponse
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestEvaluateCycleIsTyped400: at alpha = 0 greedy-best realizes a 2-cycle
// among tied competencies (voters 0 and 1 pick each other). With no fault
// block and under every policy, the daemon must answer a typed 400 that
// names the cycle, count it malformed, and keep serving. Lose-weight's
// repair used to overflow the stack and kill the process; the other cases
// answered 500 internal.
func TestEvaluateCycleIsTyped400(t *testing.T) {
	srv, ts := newTestServer(t, server.Config{})
	inst := fmt.Sprintf(`{"n": 12, "complete": true, "p": [%s]}`, strings.TrimSuffix(strings.Repeat("0.6,", 12), ","))
	blocks := []string{""}
	for _, policy := range fault.Policies() {
		blocks = append(blocks, fmt.Sprintf(`, "fault": {"policy": %q, "down_rate": 0.3}`, policy))
	}
	for _, block := range blocks {
		body := fmt.Sprintf(`{"instance": %s, "mechanism": {"name": "greedy-best", "alpha": 0}, "seed": 1, "replications": 4%s}`, inst, block)
		resp, data := post(t, ts.URL, "/v1/evaluate", body)
		if resp.StatusCode != http.StatusBadRequest || errorCode(t, data) != server.CodeBadRequest || !strings.Contains(string(data), "cycle through voter") {
			t.Fatalf("fault block %q: status = %d: %s", block, resp.StatusCode, data)
		}
	}
	// Distinct competencies leave greedy-best acyclic at alpha = 0.
	_, instJSON := testInstance(t, 12)
	evaluateOK(t, ts.URL, fmt.Sprintf(`{"instance": %s, "mechanism": {"name": "greedy-best", "alpha": 0}, "seed": 1, "replications": 4, "fault": {"policy": "lose-weight", "down_rate": 0.3}}`, instJSON))
	if st := srv.Stats(); st != (server.Stats{Received: 5, Malformed: 4, Completed: 1}) {
		t.Fatalf("stats = %+v, want 5 received = 4 malformed + 1 completed", st)
	}
}

// TestEvaluateDeadline asserts a request never hangs past its deadline:
// with a worker stuck in a slow task, the handler answers 504 on time.
func TestEvaluateDeadline(t *testing.T) {
	_, instJSON := testInstance(t, 5)
	srv, ts := newTestServer(t, server.Config{
		Shards: 1,
		ChaosHook: func(int, uint64) error {
			time.Sleep(600 * time.Millisecond)
			return nil
		},
	})

	body := fmt.Sprintf(`{"instance": %s, "mechanism": {"name": "direct"}, "deadline_ms": 100}`, instJSON)
	start := time.Now()
	resp, data := post(t, ts.URL, "/v1/evaluate", body)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	if code := errorCode(t, data); code != server.CodeDeadlineExceeded {
		t.Fatalf("code = %s", code)
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("handler held the request %v past a 100ms deadline", elapsed)
	}
	if st := srv.Stats(); st.Expired != 1 {
		t.Fatalf("stats = %+v, want Expired = 1", st)
	}
}

// TestTinyAlphaKeepsServing: at a positive alpha too small to change any
// competency, every voter on K_n lies in its own approval suffix, so its
// approval count must leave it out. A count that kept it left the most
// competent voter's draw rejecting itself forever, wedging the only worker
// of a one-shard server: the request and every later one answered 504.
// Both approval mechanisms at alpha = 1e-17, then an ordinary alpha, must
// all answer 200.
func TestTinyAlphaKeepsServing(t *testing.T) {
	_, instJSON := testInstance(t, 3)
	_, ts := newTestServer(t, server.Config{Shards: 1})
	for _, mech := range []struct {
		name  string
		alpha float64
	}{{"approval-threshold", 1e-17}, {"half-neighborhood", 1e-17}, {"approval-threshold", 0.05}} {
		body := fmt.Sprintf(`{"instance": %s, "mechanism": {"name": %q, "alpha": %v}, "seed": 3, "replications": 4, "deadline_ms": 2000}`,
			instJSON, mech.name, mech.alpha)
		if resp, data := post(t, ts.URL, "/v1/evaluate", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s at alpha %v: status = %d: %s", mech.name, mech.alpha, resp.StatusCode, data)
		}
	}
}

// TestHugeDeadlineClamps: a deadline_ms whose product with time.Millisecond
// overflows int64 clamps to MaxDeadline instead of wrapping to an expired
// or sub-millisecond deadline. On both endpoints each such request answers
// 200 with the bytes of the same request at deadline_ms 2000.
func TestHugeDeadlineClamps(t *testing.T) {
	_, instJSON := testInstance(t, 25)
	_, ts := newTestServer(t, server.Config{})
	delegations := strings.Repeat("24, ", 4) + strings.TrimSuffix(strings.Repeat("-1, ", 21), ", ")
	formats := map[string]string{
		"/v1/evaluate": `{"instance": %s, "mechanism": {"name": "direct"}, "deadline_ms": %d}`,
		"/v1/whatif":   `{"instance": %s, "delegations": [` + delegations + `], "deadline_ms": %d}`,
	}
	for _, path := range []string{"/v1/evaluate", "/v1/whatif"} {
		resp, want := post(t, ts.URL, path, fmt.Sprintf(formats[path], instJSON, 2000))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s at 2000 ms: status = %d: %s", path, resp.StatusCode, want)
		}
		for _, ms := range []int64{9223372036854, 9223372036855, 18446744073710, math.MaxInt64} {
			resp, got := post(t, ts.URL, path, fmt.Sprintf(formats[path], instJSON, ms))
			if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
				t.Errorf("%s at %d ms: status %d, body %s; want 200, %s", path, ms, resp.StatusCode, got, want)
			}
		}
	}
}

// TestShedding fills the single worker and the admission bound, and
// asserts the 429 + Retry-After path and its accounting.
func TestShedding(t *testing.T) {
	_, instJSON := testInstance(t, 5)
	release := make(chan struct{})
	running := make(chan struct{}, 8)
	srv, ts := newTestServer(t, server.Config{
		Shards:     1,
		QueueDepth: 1,
		ChaosHook: func(int, uint64) error {
			running <- struct{}{}
			<-release
			return nil
		},
	})

	body := fmt.Sprintf(`{"instance": %s, "mechanism": {"name": "direct"}, "deadline_ms": 5000}`, instJSON)
	firstDone := make(chan int)
	go func() {
		resp, _ := post(t, ts.URL, "/v1/evaluate", body)
		firstDone <- resp.StatusCode
	}()
	<-running // the worker is now occupied and the queue+cost budget is held

	resp, data := post(t, ts.URL, "/v1/evaluate", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	if code := errorCode(t, data); code != server.CodeShed {
		t.Fatalf("code = %s", code)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("shed response Retry-After = %q, want \"1\"", got)
	}

	close(release)
	if status := <-firstDone; status != http.StatusOK {
		t.Fatalf("first request status = %d", status)
	}
	st := srv.Stats()
	if st.Received != 2 || st.Completed != 1 || st.Shed != 1 {
		t.Fatalf("stats = %+v, want received 2 = completed 1 + shed 1", st)
	}
}

// TestSlowTaskDoesNotBlockQueue parks one of two workers on its first task
// and sends a request every 20 ms: the other worker drains the one queue,
// so no request waits behind the parked one, and admission, with room to
// spare, sheds none. Only the parked request may miss its deadline.
func TestSlowTaskDoesNotBlockQueue(t *testing.T) {
	const requests = 8
	_, instJSON := testInstance(t, 5)
	release := make(chan struct{})
	srv, ts := newTestServer(t, server.Config{
		Shards:     2,
		QueueDepth: 2,
		ChaosHook: func(worker int, _ uint64) error {
			if worker == 0 {
				<-release
			}
			return nil
		},
	})
	// Cleanups run last-in first-out, so worker 0 is let go before Close
	// waits for it.
	t.Cleanup(func() { close(release) })

	body := fmt.Sprintf(`{"instance": %s, "mechanism": {"name": "direct"}, "deadline_ms": 300}`, instJSON)
	statuses := make(chan int, requests)
	for i := 0; i < requests; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(body))
			if err != nil {
				statuses <- -1
				return
			}
			resp.Body.Close()
			statuses <- resp.StatusCode
		}()
		time.Sleep(20 * time.Millisecond)
	}
	var got server.Stats
	for i := 0; i < requests; i++ {
		got.Received++
		switch status := <-statuses; status {
		case http.StatusOK:
			got.Completed++
		case http.StatusTooManyRequests:
			got.Shed++
		case http.StatusGatewayTimeout:
			got.Expired++
		default:
			t.Fatalf("unexpected status %d", status)
		}
	}
	if got.Shed != 0 || got.Completed < requests-2 {
		t.Fatalf("outcomes %+v: want no shed and at least %d completed", got, requests-2)
	}
	if st := srv.Stats(); st != got {
		t.Fatalf("server accounting %+v != client-observed %+v", st, got)
	}
}

// TestPanicIsTyped500 exercises the worker's recovery path.
func TestPanicIsTyped500(t *testing.T) {
	_, instJSON := testInstance(t, 5)
	srv, ts := newTestServer(t, server.Config{
		Shards:    1,
		ChaosHook: func(int, uint64) error { panic("chaos: injected crash") },
	})

	body := fmt.Sprintf(`{"instance": %s, "mechanism": {"name": "direct"}}`, instJSON)
	resp, data := post(t, ts.URL, "/v1/evaluate", body)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	if code := errorCode(t, data); code != server.CodeInternalPanic {
		t.Fatalf("code = %s", code)
	}
	if st := srv.Stats(); st.Failed != 1 {
		t.Fatalf("stats = %+v, want Failed = 1", st)
	}
}

// TestMalformedAccounting covers the typed 400s end to end, including the
// MaxBytesReader cap.
func TestMalformedAccounting(t *testing.T) {
	srv, ts := newTestServer(t, server.Config{MaxBody: 256})

	resp, data := post(t, ts.URL, "/v1/evaluate", `{]`)
	if resp.StatusCode != http.StatusBadRequest || errorCode(t, data) != server.CodeBadJSON {
		t.Fatalf("garbage: status %d, body %s", resp.StatusCode, data)
	}

	big := fmt.Sprintf(`{"instance": {"n": 1, "p": [0.5]}, "mechanism": {"name": "direct"}, "alphas": [%s]}`,
		strings.Repeat("0.1,", 200)+"0.1")
	resp, data = post(t, ts.URL, "/v1/evaluate", big)
	if resp.StatusCode != http.StatusBadRequest || errorCode(t, data) != server.CodeBodyTooLarge {
		t.Fatalf("oversized: status %d, body %s", resp.StatusCode, data)
	}

	if st := srv.Stats(); st.Received != 2 || st.Malformed != 2 {
		t.Fatalf("stats = %+v, want 2 received = 2 malformed", st)
	}
}

// TestBodyWithoutLength covers request bodies sent chunked, with no
// Content-Length to size the read: the answer matches the same request
// sent with its length, and the MaxBytesReader cap still applies.
func TestBodyWithoutLength(t *testing.T) {
	_, instJSON := testInstance(t, 9)
	srv := server.New(server.Config{MaxBody: 1024})
	lengths := make(chan int64, 3)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		lengths <- r.ContentLength
		srv.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	postChunked := func(body string) (*http.Response, []byte) {
		// A reader of unknown length makes the client send the body chunked.
		resp, err := http.Post(ts.URL+"/v1/whatif", "application/json", io.MultiReader(strings.NewReader(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, data
	}

	body := fmt.Sprintf(`{"instance": %s, "delegations": [8, 8, 8, 8, -1, -1, -1, -1, -1]}`, instJSON)
	resp, chunked := postChunked(body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chunked: status %d: %s", resp.StatusCode, chunked)
	}
	if _, sized := post(t, ts.URL, "/v1/whatif", body); !bytes.Equal(chunked, sized) {
		t.Fatalf("chunked answer differs from the sized one:\n got: %s\nwant: %s", chunked, sized)
	}

	resp, data := postChunked(strings.Replace(body, `"delegations"`, strings.Repeat(" ", 1024)+`"delegations"`, 1))
	if resp.StatusCode != http.StatusBadRequest || errorCode(t, data) != server.CodeBodyTooLarge {
		t.Fatalf("oversized chunked: status %d, body %s", resp.StatusCode, data)
	}
	for i, want := range []int64{-1, int64(len(body)), -1} {
		if got := <-lengths; got != want {
			t.Fatalf("request %d: server saw Content-Length %d, want %d", i, got, want)
		}
	}
}

// TestWhatIfExact compares the what-if scoring against the exact kernels.
func TestWhatIfExact(t *testing.T) {
	in, instJSON := testInstance(t, 9)
	_, ts := newTestServer(t, server.Config{})

	// Voters 0..3 delegate to 8 (the most competent); the rest vote direct.
	body := fmt.Sprintf(`{"instance": %s, "delegations": [8, 8, 8, 8, -1, -1, -1, -1, -1]}`, instJSON)
	resp, data := post(t, ts.URL, "/v1/whatif", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	var got server.WhatIfResponse
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Approximate {
		t.Fatal("small exact what-if flagged approximate")
	}

	d := core.NewDelegationGraph(9)
	for v := 0; v < 4; v++ {
		if err := d.SetDelegate(v, 8); err != nil {
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
	if got.PM != pm || got.PD != pd || got.Gain != pm-pd {
		t.Fatalf("whatif = %+v, want pm %v pd %v", got, pm, pd)
	}
	if got.Sinks != 5 || got.MaxWeight != 5 || got.TotalWeight != 9 || got.Delegators != 4 {
		t.Fatalf("structure = %+v", got)
	}
}

// TestWhatIfLadderExactEscalation posts a budgeted what-if whose tiny error
// budget forces the ladder off the normal tier: both probabilities must come
// back exact (tier "exact", half-width 0), with P^M bit-identical to the
// offline exact kernel on the same resolution.
func TestWhatIfLadderExactEscalation(t *testing.T) {
	in, instJSON := testInstance(t, 64)
	_, ts := newTestServer(t, server.Config{})

	delegations := make([]string, 64)
	for i := range delegations {
		delegations[i] = "-1"
		if i < 10 {
			delegations[i] = "63"
		}
	}
	body := fmt.Sprintf(`{"instance": %s, "delegations": [%s], "error_budget": 1e-9}`,
		instJSON, strings.Join(delegations, ","))
	resp, data := post(t, ts.URL, "/v1/whatif", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	var got server.WhatIfResponse
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.PDTier != "exact" || got.PDHalfWidth != 0 || got.PMTier != "exact" || got.PMHalfWidth != 0 {
		t.Fatalf("tiers = %+v, want exact/exact with zero half-widths", got)
	}
	if got.Approximate {
		t.Fatal("exact-tier budgeted what-if flagged approximate")
	}

	d := core.NewDelegationGraph(64)
	for v := 0; v < 10; v++ {
		if err := d.SetDelegate(v, 63); err != nil {
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
	if got.PM != pm {
		t.Fatalf("pm = %v, offline exact %v", got.PM, pm)
	}
	pd, err := election.DirectProbabilityExact(in)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.PD) != math.Float64bits(pd) {
		t.Fatalf("pd = %v, offline exact %v", got.PD, pd)
	}
	if got.Gain != got.PM-got.PD {
		t.Fatalf("gain = %v, want pm-pd", got.Gain)
	}
}

// TestWhatIfBudgetStarvedDeadline: a budgeted what-if whose deadline cannot
// afford exact scoring must stay on the normal tier for both probabilities.
// The body is TestWhatIfLadderExactEscalation's, whose 1e-9 budget no normal
// interval meets; the starved cost rate makes exact unaffordable, so the
// answer is the two normal intervals, flagged approximate, with the budget
// reported as missed through the half-widths.
func TestWhatIfBudgetStarvedDeadline(t *testing.T) {
	_, instJSON := testInstance(t, 64)
	_, ts := newTestServer(t, server.Config{CostRate: 0.001})

	delegations := make([]string, 64)
	for i := range delegations {
		delegations[i] = "-1"
		if i < 10 {
			delegations[i] = "63"
		}
	}
	body := fmt.Sprintf(`{"instance": %s, "delegations": [%s], "error_budget": 1e-9}`,
		instJSON, strings.Join(delegations, ","))
	resp, data := post(t, ts.URL, "/v1/whatif", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	var got server.WhatIfResponse
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.PDTier != "normal" || got.PMTier != "normal" || !got.Approximate {
		t.Fatalf("starved budgeted what-if answered %s, want normal/normal, approximate", data)
	}
	if got.PDHalfWidth <= 1e-9 || got.PMHalfWidth <= 1e-9 {
		t.Fatalf("half-widths %v/%v, want the missed budget reported", got.PDHalfWidth, got.PMHalfWidth)
	}
}

// TestWhatIfLadderNormalTier posts a budgeted what-if big enough that the
// normal tier certifies within budget: the daemon must answer with tier
// "normal" and a half-width inside the requested budget, flagged
// approximate, without ever paying for a kernel evaluation.
func TestWhatIfLadderNormalTier(t *testing.T) {
	_, instJSON := testInstance(t, 8192)
	_, ts := newTestServer(t, server.Config{})

	delegations := make([]string, 8192)
	for i := range delegations {
		delegations[i] = "-1"
	}
	body := fmt.Sprintf(`{"instance": %s, "delegations": [%s], "error_budget": 1e-3}`,
		instJSON, strings.Join(delegations, ","))
	resp, data := post(t, ts.URL, "/v1/whatif", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	var got server.WhatIfResponse
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.PDTier != "normal" || got.PMTier != "normal" {
		t.Fatalf("tiers = %s/%s, want normal/normal", got.PDTier, got.PMTier)
	}
	if got.PDHalfWidth > 1e-3 || got.PMHalfWidth > 1e-3 {
		t.Fatalf("half-widths %v/%v over the 1e-3 budget", got.PDHalfWidth, got.PMHalfWidth)
	}
	if !got.Approximate {
		t.Fatal("normal-tier response not flagged approximate")
	}
	if got.PM != got.PD {
		// All-direct profile: the two sums are the same distribution.
		t.Fatalf("pm = %v, pd = %v on an all-direct profile", got.PM, got.PD)
	}
}

// TestWhatIfBadErrorBudget asserts malformed budgets are typed 400s.
func TestWhatIfBadErrorBudget(t *testing.T) {
	_, instJSON := testInstance(t, 5)
	_, ts := newTestServer(t, server.Config{})
	for _, budget := range []string{"-0.5", "1.5", "NaN"} {
		body := fmt.Sprintf(`{"instance": %s, "delegations": [-1, -1, -1, -1, -1], "error_budget": %s}`, instJSON, budget)
		resp, data := post(t, ts.URL, "/v1/whatif", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("error_budget %s: status = %d: %s", budget, resp.StatusCode, data)
		}
	}
}

// TestWhatIfCycleIsTyped400 asserts cyclic profiles are rejected before
// admission.
func TestWhatIfCycleIsTyped400(t *testing.T) {
	srv, ts := newTestServer(t, server.Config{})
	body := `{"instance": {"n": 2, "complete": true, "p": [0.5, 0.5]}, "delegations": [1, 0]}`
	resp, data := post(t, ts.URL, "/v1/whatif", body)
	if resp.StatusCode != http.StatusBadRequest || errorCode(t, data) != server.CodeBadRequest {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	if st := srv.Stats(); st.Malformed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestDrainSheds503 asserts a draining server refuses work instead of
// accepting requests it may never finish.
func TestDrainSheds503(t *testing.T) {
	_, instJSON := testInstance(t, 5)
	s := server.New(server.Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	s.Close()

	body := fmt.Sprintf(`{"instance": %s, "mechanism": {"name": "direct"}}`, instJSON)
	resp, data := post(t, ts.URL, "/v1/evaluate", body)
	if resp.StatusCode != http.StatusServiceUnavailable || errorCode(t, data) != server.CodeShed {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	if st := s.Stats(); st.Shed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestHealthAndStats(t *testing.T) {
	srv, ts := newTestServer(t, server.Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp, err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/statsz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("statsz: %v %v", resp, err)
	}
	var st server.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st != srv.Stats() {
		t.Fatalf("statsz %+v != Stats() %+v", st, srv.Stats())
	}
}

// TestLatencyTelemetryIsWritten asserts the serving metrics reach the
// default registry (read here, at the test boundary, where reads are
// legal).
func TestLatencyTelemetryIsWritten(t *testing.T) {
	_, instJSON := testInstance(t, 5)
	_, ts := newTestServer(t, server.Config{})
	before := telemetry.Default.Snapshot().Counter("server/requests")
	body := fmt.Sprintf(`{"instance": %s, "mechanism": {"name": "direct"}}`, instJSON)
	if resp, data := post(t, ts.URL, "/v1/evaluate", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	after := telemetry.Default.Snapshot().Counter("server/requests")
	if after != before+1 {
		t.Fatalf("server/requests went %d -> %d, want +1", before, after)
	}
}

// deltaBody renders a what-if body with a delta list (raw JSON for the
// deltas so tests control exactly what goes on the wire).
func deltaBody(instJSON string, delegations string, deltasJSON string) string {
	return fmt.Sprintf(`{"instance": %s, "delegations": %s, "deltas": %s}`, instJSON, delegations, deltasJSON)
}

// offlineWhatIfDelta recomputes a delta what-if response offline: apply
// the deltas, resolve, and score with the exact kernels.
func offlineWhatIfDelta(t *testing.T, in *core.Instance, delegations []int, deltas []election.Delta) server.WhatIfResponse {
	t.Helper()
	d := core.NewDelegationGraph(in.N())
	for i, j := range delegations {
		if j == core.NoDelegate {
			continue
		}
		if err := d.SetDelegate(i, j); err != nil {
			t.Fatal(err)
		}
	}
	fin, fd, err := election.PreviewDeltas(in, d, deltas...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fd.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	pm, err := election.ResolutionProbabilityExact(fin, res)
	if err != nil {
		t.Fatal(err)
	}
	pd, err := election.DirectProbabilityExact(fin)
	if err != nil {
		t.Fatal(err)
	}
	return server.WhatIfResponse{
		PM: pm, PD: pd, Gain: pm - pd,
		Sinks: len(res.Sinks), MaxWeight: res.MaxWeight, TotalWeight: res.TotalWeight,
		Delegators: res.Delegators, LongestChain: res.LongestChain,
		DeltasApplied: len(deltas),
	}
}

// postWhatIfDelta posts a delta what-if and requires the response bytes to
// equal the offline recomputation exactly.
func postWhatIfDelta(t *testing.T, url string, in *core.Instance, instJSON, delegations, deltasJSON string, baseDeleg []int, deltas []election.Delta) {
	t.Helper()
	resp, data := post(t, url, "/v1/whatif", deltaBody(instJSON, delegations, deltasJSON))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	want, err := json.Marshal(offlineWhatIfDelta(t, in, baseDeleg, deltas))
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if !bytes.Equal(data, want) {
		t.Fatalf("delta what-if differs from offline evaluation:\n got: %s\nwant: %s", data, want)
	}
}

// TestWhatIfDeltaBitIdentical is the delta endpoint's core contract: a
// served delta response is byte-identical to applying the deltas and
// scoring from scratch offline — including on repeats and across
// different edits of the same base.
func TestWhatIfDeltaBitIdentical(t *testing.T) {
	in, instJSON := testInstance(t, 9)
	_, ts := newTestServer(t, server.Config{})
	delegations := `[8, 8, -1, -1, -1, -1, -1, -1, -1]`
	baseDeleg := []int{8, 8, -1, -1, -1, -1, -1, -1, -1}

	// Repoint-only probe, twice.
	repoints := `[{"kind": "repoint", "voter": 2, "target": 8}, {"kind": "repoint", "voter": 0, "target": -1}]`
	repointDeltas := []election.Delta{
		{Kind: election.DeltaRepoint, Voter: 2, Target: 8},
		{Kind: election.DeltaRepoint, Voter: 0, Target: core.NoDelegate},
	}
	postWhatIfDelta(t, ts.URL, in, instJSON, delegations, repoints, baseDeleg, repointDeltas)
	postWhatIfDelta(t, ts.URL, in, instJSON, delegations, repoints, baseDeleg, repointDeltas)

	// A different edit of the same base must start from the base profile,
	// not from the previous probe's.
	other := `[{"kind": "repoint", "voter": 5, "target": 8}]`
	otherDeltas := []election.Delta{{Kind: election.DeltaRepoint, Voter: 5, Target: 8}}
	postWhatIfDelta(t, ts.URL, in, instJSON, delegations, other, baseDeleg, otherDeltas)

	// Instance-level deltas: competency change, voter add with an initial
	// delegation, voter removal with id remap.
	structural := `[{"kind": "competency", "voter": 3, "p": 0.9},
		{"kind": "add-voter", "p": 0.7, "target": 8},
		{"kind": "remove-voter", "voter": 1},
		{"kind": "repoint", "voter": 4, "target": 7}]`
	structuralDeltas := []election.Delta{
		{Kind: election.DeltaCompetency, Voter: 3, P: 0.9},
		{Kind: election.DeltaAddVoter, P: 0.7, Target: 8},
		{Kind: election.DeltaRemoveVoter, Voter: 1},
		{Kind: election.DeltaRepoint, Voter: 4, Target: 7},
	}
	postWhatIfDelta(t, ts.URL, in, instJSON, delegations, structural, baseDeleg, structuralDeltas)

	// The base election must be unchanged by the structural probe.
	postWhatIfDelta(t, ts.URL, in, instJSON, delegations, repoints, baseDeleg, repointDeltas)
}

// TestWhatIfDeltaExplicitGraph exercises the edge-edit kinds, which only
// exist on explicit topologies.
func TestWhatIfDeltaExplicitGraph(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	instJSON := `{"n": 4, "edges": [[0,1],[1,2],[2,3]], "p": [0.55, 0.6, 0.65, 0.7]}`
	g, err := graph.NewGraphFromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	in, err := core.NewInstance(g, []float64{0.55, 0.6, 0.65, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	delegations := `[1, -1, -1, -1]`
	deltasJSON := `[{"kind": "add-edge", "voter": 0, "target": 3},
		{"kind": "remove-edge", "voter": 1, "target": 2},
		{"kind": "add-voter", "p": 0.8, "edges": [0, 3]}]`
	deltas := []election.Delta{
		{Kind: election.DeltaAddEdge, Voter: 0, Target: 3},
		{Kind: election.DeltaRemoveEdge, Voter: 1, Target: 2},
		{Kind: election.DeltaAddVoter, P: 0.8, Target: core.NoDelegate, Edges: []int{0, 3}},
	}
	postWhatIfDelta(t, ts.URL, in, instJSON, delegations, deltasJSON, []int{1, -1, -1, -1}, deltas)
}

// TestWhatIfDeltaRejections asserts every malformed delta is a typed 400
// counted as malformed — workers never see a delta list that does not
// apply cleanly, so the accounting identity cannot leak through deltas.
func TestWhatIfDeltaRejections(t *testing.T) {
	srv, ts := newTestServer(t, server.Config{})
	_, instJSON := testInstance(t, 4)
	delegations := `[-1, -1, -1, -1]`
	cases := []struct {
		name, deltas, code string
	}{
		{"unknown kind", `[{"kind": "teleport", "voter": 0}]`, server.CodeBadDelta},
		{"edge without target", `[{"kind": "add-edge", "voter": 0}]`, server.CodeBadDelta},
		{"competency out of range", `[{"kind": "competency", "voter": 0, "p": 1.5}]`, server.CodeBadCompetency},
		{"repoint out of range", `[{"kind": "repoint", "voter": 9, "target": 0}]`, server.CodeBadDelta},
		{"remove out of range", `[{"kind": "remove-voter", "voter": 7}]`, server.CodeBadDelta},
		{"edge edit on complete", `[{"kind": "add-edge", "voter": 0, "target": 1}]`, server.CodeBadDelta},
		{"add-voter edges on complete", `[{"kind": "add-voter", "p": 0.5, "edges": [0]}]`, server.CodeBadDelta},
	}
	for _, tc := range cases {
		resp, data := post(t, ts.URL, "/v1/whatif", deltaBody(instJSON, delegations, tc.deltas))
		if resp.StatusCode != http.StatusBadRequest || errorCode(t, data) != tc.code {
			t.Errorf("%s: status %d code %s, want 400 %s (%s)", tc.name, resp.StatusCode, errorCode(t, data), tc.code, data)
		}
	}
	// A delta list that creates a cycle is rejected at the post-delta
	// resolve, same typed 400 as a cyclic base profile.
	resp, data := post(t, ts.URL, "/v1/whatif", deltaBody(instJSON, `[1, -1, -1, -1]`,
		`[{"kind": "repoint", "voter": 1, "target": 0}]`))
	if resp.StatusCode != http.StatusBadRequest || errorCode(t, data) != server.CodeBadRequest {
		t.Fatalf("post-delta cycle: status %d: %s", resp.StatusCode, data)
	}
	want := uint64(len(cases) + 1)
	if st := srv.Stats(); st.Malformed != want || st.Received != want {
		t.Fatalf("stats = %+v, want %d received = malformed", st, want)
	}
}

// TestNegativeZeroCompetencyServed: a competency of −0.0 on the wire is the
// same competency as 0.0, so both bodies must get byte-identical answers,
// for an evaluate (where the approval sets depend on the competency order)
// and for a what-if whose delta sets a competency (where the exact kernels
// add the sinks in competency order). Each body gets a fresh server, so no
// cache can make the answers agree.
func TestNegativeZeroCompetencyServed(t *testing.T) {
	serve := func(path, body string) []byte {
		t.Helper()
		_, ts := newTestServer(t, server.Config{})
		resp, data := post(t, ts.URL, path, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d: %s", path, resp.StatusCode, data)
		}
		return data
	}
	for _, c := range []struct{ path, body string }{
		{"/v1/evaluate", `{"instance": {"n": 6, "complete": true, "p": [%s, 0.45, 0.5, 0.55, 0.6, 0.65]},
			"mechanism": {"name": "approval-threshold"}, "alphas": [0.05], "seed": 3, "replications": 64}`},
		{"/v1/whatif", `{"instance": {"n": 7, "complete": true, "p": [0.34, 0.98, 0.17, 0.54, 0.68, 0.32, 0.58]},
			"delegations": [-1, -1, 6, -1, -1, -1, -1], "deltas": [{"kind": "competency", "voter": 1, "p": %s}]}`},
	} {
		neg := serve(c.path, fmt.Sprintf(c.body, "-0.0"))
		pos := serve(c.path, fmt.Sprintf(c.body, "0.0"))
		if !bytes.Equal(neg, pos) {
			t.Errorf("%s: -0.0 and 0.0 answered differently:\n -0.0: %s\n  0.0: %s", c.path, neg, pos)
		}
	}
}

// corpusElection draws a seeded n-voter election: competencies in
// [0.3, 0.8), and each voter after the first delegating, with probability
// frac, to a uniformly chosen lower-numbered voter, so every profile is
// acyclic. It returns the instance, the delegations and the instance's
// wire form.
func corpusElection(t *testing.T, s *rng.Stream, n int, frac float64) (*core.Instance, []int, string) {
	t.Helper()
	ps := make([]float64, n)
	spec := make([]string, n)
	for i := range ps {
		ps[i] = 0.3 + 0.5*s.Float64()
		spec[i] = strconv.FormatFloat(ps[i], 'g', -1, 64)
	}
	delegations := make([]int, n)
	for i := range delegations {
		delegations[i] = core.NoDelegate
		if i > 0 && s.Float64() < frac {
			delegations[i] = s.IntN(i)
		}
	}
	in, err := core.NewInstance(graph.NewComplete(n), ps)
	if err != nil {
		t.Fatal(err)
	}
	return in, delegations, fmt.Sprintf(`{"n": %d, "complete": true, "p": [%s]}`, n, strings.Join(spec, ","))
}

// TestWhatIfUnbudgetedDegradation covers the unbudgeted what-if's two
// outcomes over a seeded corpus, each request plain and with one repoint
// delta. Under a starved cost rate every answer must come from the normal
// tiers, flagged approximate, with pm ± pm_half_width and pd ± pd_half_width
// containing the exact values of the post-delta election. Under the default
// deadline, one voter past election.ExactDirectMaxN, the answer must be
// exact and byte-identical to offline exact scoring.
func TestWhatIfUnbudgetedDegradation(t *testing.T) {
	// variants are the plain request and the one-repoint delta request.
	variants := func(n int) [][]election.Delta {
		return [][]election.Delta{nil, {{Kind: election.DeltaRepoint, Voter: n - 1, Target: 0}}}
	}
	body := func(instJSON string, delegations []int, deltas []election.Delta) string {
		if len(deltas) == 0 {
			return fmt.Sprintf(`{"instance": %s, "delegations": %s}`, instJSON, intsJSON(delegations))
		}
		d := deltas[0]
		return deltaBody(instJSON, intsJSON(delegations), fmt.Sprintf(`[{"kind": "repoint", "voter": %d, "target": %d}]`, d.Voter, d.Target))
	}
	s := rng.New(rng.Derive(15, "server", "degraded-corpus"))

	_, starved := newTestServer(t, server.Config{CostRate: 0.001})
	for _, n := range []int{25, 101, 500, 2000} {
		for _, frac := range []float64{0, 0.3, 0.7, 0.95} {
			in, delegations, instJSON := corpusElection(t, s, n, frac)
			for _, deltas := range variants(n) {
				want := offlineWhatIfDelta(t, in, delegations, deltas)
				resp, data := post(t, starved.URL, "/v1/whatif", body(instJSON, delegations, deltas))
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("n=%d frac=%v deltas=%d: status = %d: %s", n, frac, len(deltas), resp.StatusCode, data)
				}
				var got server.WhatIfResponse
				if err := json.Unmarshal(data, &got); err != nil {
					t.Fatal(err)
				}
				if !got.Approximate || got.PDTier != "normal" || got.PMTier != "normal" {
					t.Fatalf("n=%d frac=%v deltas=%d: %s, want approximate normal/normal", n, frac, len(deltas), data)
				}
				if math.Abs(got.PM-want.PM) > got.PMHalfWidth || math.Abs(got.PD-want.PD) > got.PDHalfWidth {
					t.Fatalf("n=%d frac=%v deltas=%d: pm %v ± %v, pd %v ± %v miss exact pm %v, pd %v",
						n, frac, len(deltas), got.PM, got.PMHalfWidth, got.PD, got.PDHalfWidth, want.PM, want.PD)
				}
				if got.Sinks != want.Sinks || got.TotalWeight != want.TotalWeight || got.DeltasApplied != want.DeltasApplied {
					t.Fatalf("n=%d frac=%v deltas=%d: structure %s, want %+v", n, frac, len(deltas), data, want)
				}
			}
		}
	}

	_, ts := newTestServer(t, server.Config{})
	n := election.ExactDirectMaxN + 1
	in, delegations, instJSON := corpusElection(t, s, n, 0.3)
	for _, deltas := range variants(n) {
		resp, data := post(t, ts.URL, "/v1/whatif", body(instJSON, delegations, deltas))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("n=%d deltas=%d: status = %d: %s", n, len(deltas), resp.StatusCode, data)
		}
		want, err := json.Marshal(offlineWhatIfDelta(t, in, delegations, deltas))
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); !bytes.Equal(data, want) {
			t.Fatalf("n=%d deltas=%d: what-if differs from offline exact scoring:\n got: %s\nwant: %s", n, len(deltas), data, want)
		}
	}
}

// intsJSON renders an int slice as a JSON array.
func intsJSON(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return "[" + strings.Join(parts, ",") + "]"
}
