// Command liquidload drives a running liquidd with a seeded, deterministic
// open-loop request schedule and checks the serving invariants from the
// outside. The same -seed produces the same request mix — instances,
// mechanism parameters, per-request seeds, and injected faults (malformed
// bodies, slow clients) — so a load run is reproducible end to end.
//
// After the run it fetches /statsz and verifies the daemon's accounting
// delta matches the client-observed outcomes exactly:
//
//	sent == completed + malformed + shed + failed + expired
//
// and, with -verify, answers every completed request again with the
// daemon's own handler, run in process on one shard, and requires the
// live response's bytes: evaluates, fault evaluates and explicit and delta
// what-ifs alike. Any violation exits nonzero.
//
// -whatif-delta-frac carves out a slice of delta what-ifs: every such
// request probes the same shared base election with a short list of
// incremental edits.
//
// Usage:
//
//	liquidload -addr host:port [-requests N] [-rate R] [-seed N]
//	           [-voters N] [-replications N] [-deadline-ms N]
//	           [-whatif-frac F] [-whatif-delta-frac F] [-fault-frac F]
//	           [-malformed-frac F] [-slow-frac F] [-verify]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"liquid/internal/rng"
	"liquid/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "liquidload:", err)
		os.Exit(1)
	}
}

// request is one scheduled request: its kind, wire bytes and seed.
type request struct {
	kind string // evaluate | fault | whatif | whatif-delta | malformed
	path string
	body []byte
	seed uint64
	slow bool
}

// outcome is one completed request's client-side observation.
type outcome struct {
	status  int
	body    []byte
	latency time.Duration
	err     error
}

func run(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("liquidload", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		addr       = fs.String("addr", "", "daemon address (host:port; required)")
		requests   = fs.Int("requests", 200, "number of requests to send")
		rate       = fs.Float64("rate", 200, "open-loop arrival rate, requests/sec")
		seed       = fs.Uint64("seed", 1, "schedule seed (same seed => same request mix)")
		voters     = fs.Int("voters", 25, "instance size per request")
		reps       = fs.Int("replications", 8, "sweep replications per request")
		deadlineMS = fs.Int64("deadline-ms", 2000, "per-request deadline")
		whatifF    = fs.Float64("whatif-frac", 0.2, "fraction of /v1/whatif requests")
		whatifDF   = fs.Float64("whatif-delta-frac", 0, "fraction of delta what-ifs: incremental edits probed against one shared base election")
		faultF     = fs.Float64("fault-frac", 0.2, "fraction of evaluate requests carrying a fault block")
		malformedF = fs.Float64("malformed-frac", 0.1, "fraction of malformed bodies (typed 400s)")
		slowF      = fs.Float64("slow-frac", 0.1, "fraction of slow clients (trickled request bodies)")
		verify     = fs.Bool("verify", false, "answer every completed request again with the daemon's handler in process and require bit-identity")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" {
		return fmt.Errorf("-addr is required")
	}
	base := *addr
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		base = "http://" + base
	}

	reqs, err := buildSchedule(*seed, *requests, *voters, *reps, *deadlineMS, *whatifF, *whatifDF, *faultF, *malformedF, *slowF)
	if err != nil {
		return err
	}

	before, err := fetchStats(base)
	if err != nil {
		return fmt.Errorf("statsz before run: %w", err)
	}

	// Open-loop arrival: request i fires at start + i/rate regardless of how
	// earlier requests are faring, so the daemon sees sustained pressure
	// rather than a closed feedback loop that slows down when it does.
	interval := time.Duration(float64(time.Second) / *rate)
	outcomes := make([]outcome, len(reqs))
	start := time.Now()
	var wg sync.WaitGroup
	for i, rq := range reqs {
		time.Sleep(time.Until(start.Add(time.Duration(i) * interval)))
		wg.Add(1)
		go func(i int, rq request) {
			defer wg.Done()
			outcomes[i] = send(base, rq)
		}(i, rq)
	}
	wg.Wait()
	wall := time.Since(start)

	after, err := fetchStats(base)
	if err != nil {
		return fmt.Errorf("statsz after run: %w", err)
	}

	// Classify the client-observed outcomes.
	var got server.Stats
	var latencies []time.Duration
	for i, o := range outcomes {
		if o.err != nil {
			return fmt.Errorf("request %d: transport error: %v", i, o.err)
		}
		got.Received++
		latencies = append(latencies, o.latency)
		switch o.status {
		case http.StatusOK:
			got.Completed++
		case http.StatusBadRequest:
			got.Malformed++
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			got.Shed++
		case http.StatusGatewayTimeout:
			got.Expired++
		default:
			got.Failed++
		}
	}

	// The accounting invariant, checked from the outside against the
	// daemon's own counters.
	delta := server.Stats{
		Received:  after.Received - before.Received,
		Malformed: after.Malformed - before.Malformed,
		Shed:      after.Shed - before.Shed,
		Completed: after.Completed - before.Completed,
		Failed:    after.Failed - before.Failed,
		Expired:   after.Expired - before.Expired,
	}
	fmt.Fprintf(out, "sent %d in %.2fs (%.1f req/s): completed %d, malformed %d, shed %d, failed %d, expired %d\n",
		got.Received, wall.Seconds(), float64(got.Received)/wall.Seconds(),
		got.Completed, got.Malformed, got.Shed, got.Failed, got.Expired)
	if delta != got {
		return fmt.Errorf("accounting mismatch: daemon delta %+v, client observed %+v", delta, got)
	}
	if sum := got.Malformed + got.Shed + got.Completed + got.Failed + got.Expired; sum != got.Received {
		return fmt.Errorf("outcome taxonomy leaks: %d outcomes for %d requests", sum, got.Received)
	}

	if *verify {
		verified, err := verifyInProcess(reqs, outcomes)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "verified %d completed responses bit-identical to the daemon's handler run in process\n", verified)
	}

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	p := func(q float64) float64 {
		if len(latencies) == 0 {
			return 0
		}
		idx := int(q * float64(len(latencies)-1))
		return float64(latencies[idx]) / float64(time.Millisecond)
	}
	fmt.Fprintf(out, "latency ms: p50 %.2f, p90 %.2f, p99 %.2f, max %.2f\n", p(0.50), p(0.90), p(0.99), p(1))
	return nil
}

// buildSchedule derives the full request mix from the seed. Request i's
// randomness comes from stream Derive(i), so the schedule is independent
// of evaluation order.
func buildSchedule(seed uint64, n, voters, reps int, deadlineMS int64, whatifF, whatifDF, faultF, malformedF, slowF float64) ([]request, error) {
	root := rng.New(seed).DeriveString("liquidload")
	baseDeleg := baseDelegations(voters)
	reqs := make([]request, n)
	for i := range reqs {
		s := root.Derive(uint64(i))
		rq := request{seed: s.Uint64(), slow: s.Float64() < slowF, path: "/v1/evaluate"}
		inst := instanceSpec(voters)
		switch u := s.Float64(); {
		case u < malformedF:
			rq.kind = "malformed"
			rq.body = []byte(fmt.Sprintf(`{"instance": {"n": %d}, "mech`, i))
		case u < malformedF+whatifF:
			rq.kind = "whatif"
			rq.path = "/v1/whatif"
			// Mostly upward delegations (acyclic by construction) so the bulk
			// of what-ifs complete; a 10% slice delegates uniformly, which is
			// nearly always cyclic — legal wire input that the daemon answers
			// with a typed 400, counted as malformed.
			cyclicProne := s.Float64() < 0.1
			deleg := make([]int, voters)
			for v := range deleg {
				switch {
				case cyclicProne:
					if to := int(s.Uint64() % uint64(voters+1)); to != v && to < voters {
						deleg[v] = to
					} else {
						deleg[v] = -1
					}
				case v < voters-1 && s.Float64() < 0.5:
					deleg[v] = v + 1 + int(s.Uint64()%uint64(voters-v-1))
				default:
					deleg[v] = -1
				}
			}
			body, err := json.Marshal(server.WhatIfRequest{Instance: inst, Delegations: deleg, DeadlineMS: deadlineMS})
			if err != nil {
				return nil, err
			}
			rq.body = body
		case u < malformedF+whatifF+whatifDF:
			rq.kind = "whatif-delta"
			rq.path = "/v1/whatif"
			// Every delta what-if probes the SAME base election with a
			// short list of upward (acyclic by construction) repoints and
			// an occasional competency edit, which forces the
			// instance-level path.
			k := 1 + int(s.Uint64()%3)
			deltas := make([]server.DeltaSpec, 0, k+1)
			for j := 0; j < k; j++ {
				v := int(s.Uint64() % uint64(voters))
				to := -1
				if v+1 < voters && s.Float64() < 0.7 {
					to = v + 1 + int(s.Uint64()%uint64(voters-v-1))
				}
				target := to
				deltas = append(deltas, server.DeltaSpec{Kind: "repoint", Voter: v, Target: &target})
			}
			if s.Float64() < 0.3 {
				deltas = append(deltas, server.DeltaSpec{
					Kind: "competency", Voter: int(s.Uint64() % uint64(voters)), P: 0.35 + 0.5*s.Float64(),
				})
			}
			body, err := json.Marshal(server.WhatIfRequest{Instance: inst, Delegations: baseDeleg, Deltas: deltas, DeadlineMS: deadlineMS})
			if err != nil {
				return nil, err
			}
			rq.body = body
		case u < malformedF+whatifF+whatifDF+faultF:
			rq.kind = "fault"
			body, err := json.Marshal(server.EvaluateRequest{
				Instance:     inst,
				Mechanism:    server.MechanismSpec{Name: "greedy-best", Alpha: 0.05},
				Seed:         rq.seed,
				Replications: reps,
				DeadlineMS:   deadlineMS,
				Fault:        &server.FaultSpec{Policy: "fallback-to-direct", DownRate: 0.2},
			})
			if err != nil {
				return nil, err
			}
			rq.body = body
		default:
			rq.kind = "evaluate"
			body, err := json.Marshal(server.EvaluateRequest{
				Instance:     inst,
				Mechanism:    server.MechanismSpec{Name: "approval-threshold", Alpha: 0.05 * float64(s.Uint64()%5)},
				Seed:         rq.seed,
				Replications: reps,
				DeadlineMS:   deadlineMS,
			})
			if err != nil {
				return nil, err
			}
			rq.body = body
		}
		reqs[i] = rq
	}
	return reqs, nil
}

// baseDelegations is the shared base profile every delta what-if probes:
// a fixed, acyclic pattern (every third voter delegates one step up).
func baseDelegations(voters int) []int {
	deleg := make([]int, voters)
	for v := range deleg {
		if v%3 == 0 && v+1 < voters {
			deleg[v] = v + 1
		} else {
			deleg[v] = -1
		}
	}
	return deleg
}

// instanceSpec derives a deterministic competency profile: a fixed grid,
// not draws.
func instanceSpec(voters int) server.InstanceSpec {
	ps := make([]float64, voters)
	for i := range ps {
		ps[i] = 0.4 + 0.5*float64(i)/float64(voters)
	}
	return server.InstanceSpec{N: voters, Complete: true, P: ps}
}

// send issues one request, optionally through the slow-client fault
// (trickling the body a few bytes at a time).
func send(base string, rq request) outcome {
	var body io.Reader = bytes.NewReader(rq.body)
	if rq.slow {
		body = &slowReader{data: rq.body, chunk: 64, delay: 2 * time.Millisecond}
	}
	start := time.Now()
	req, err := http.NewRequest("POST", base+rq.path, body)
	if err != nil {
		return outcome{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	if rq.slow {
		// Defeat transparent buffering so the daemon really sees a trickle.
		req.ContentLength = -1
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return outcome{err: err, latency: time.Since(start)}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return outcome{status: resp.StatusCode, body: data, latency: time.Since(start), err: err}
}

// slowReader trickles its payload chunk by chunk with a delay, simulating
// a slow or adversarial client holding a connection open.
type slowReader struct {
	data  []byte
	off   int
	chunk int
	delay time.Duration
}

func (r *slowReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	if r.off > 0 {
		time.Sleep(r.delay)
	}
	n := r.chunk
	if n > len(p) {
		n = len(p)
	}
	if rem := len(r.data) - r.off; n > rem {
		n = rem
	}
	copy(p, r.data[r.off:r.off+n])
	r.off += n
	return n, nil
}

// fetchStats reads the daemon's accounting counters.
func fetchStats(base string) (server.Stats, error) {
	var st server.Stats
	resp, err := http.Get(base + "/statsz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("statsz: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// verifyInProcess answers every request the daemon completed again, with
// the daemon's own handler on a fresh one-shard server in this process,
// and requires the same status and bytes. It returns how many it checked.
// The in-process answer is exact wherever the live one was, so a daemon
// that degraded a completed answer (a starved -cost-rate, say) fails here.
func verifyInProcess(reqs []request, outcomes []outcome) (int, error) {
	srv := server.New(server.Config{Shards: 1})
	defer srv.Close()
	h := srv.Handler()
	verified := 0
	for i, o := range outcomes {
		if o.status != http.StatusOK {
			continue
		}
		rq := reqs[i]
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, rq.path, bytes.NewReader(rq.body)))
		if rec.Code != o.status || !bytes.Equal(o.body, rec.Body.Bytes()) {
			return verified, fmt.Errorf("request %d (%s, seed %d) not bit-identical to the in-process handler:\n got: %s\nwant: %d %s",
				i, rq.kind, rq.seed, o.body, rec.Code, rec.Body.Bytes())
		}
		verified++
	}
	return verified, nil
}
