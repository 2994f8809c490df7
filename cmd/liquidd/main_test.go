package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"liquid/internal/telemetry"
)

// buildBinary compiles a package of this module into dir.
func buildBinary(t *testing.T, dir, pkg, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// lockedBuffer collects subprocess stderr concurrently with the test
// reading it.
type lockedBuffer struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	done chan struct{}
}

// WaitEOF blocks until the collecting goroutine has seen the pipe close,
// so String() after a cmd.Wait() observes the final lines.
func (b *lockedBuffer) WaitEOF() { <-b.done }

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startDaemon launches liquidd on an ephemeral port and returns the bound
// address parsed from its startup line.
func startDaemon(t *testing.T, bin string, extra ...string) (*exec.Cmd, string, *lockedBuffer) {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// The first stderr line announces the bound address; keep draining the
	// pipe afterwards so the daemon never blocks on a full pipe buffer.
	sc := bufio.NewScanner(stderr)
	var addr string
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "liquidd: serving on http://"); ok {
			addr = rest
			break
		}
	}
	if addr == "" {
		_ = cmd.Process.Kill()
		t.Fatalf("liquidd never announced its address (scan err %v)", sc.Err())
	}
	rest := &lockedBuffer{done: make(chan struct{})}
	go func() {
		_, _ = io.Copy(rest, stderr)
		close(rest.done)
	}()
	return cmd, addr, rest
}

// TestServeSmoke is the end-to-end serving gate (`make serve-smoke`): build
// the daemon and the load generator, drive a deterministic load profile
// with offline bit-identity verification, then drain with SIGTERM and
// check the manifest was flushed and the exit code is 0. The delta
// what-ifs all probe one base, so the manifest must count base-memo hits.
func TestServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives subprocesses")
	}
	dir := t.TempDir()
	daemon := buildBinary(t, dir, "liquid/cmd/liquidd", "liquidd")
	loader := buildBinary(t, dir, "liquid/cmd/liquidload", "liquidload")
	manifest := filepath.Join(dir, "manifest.json")

	cmd, addr, stderrRest := startDaemon(t, daemon, "-manifest", manifest)
	defer func() { _ = cmd.Process.Kill() }()

	// The load generator exits nonzero if the accounting identity or the
	// bit-identity verification fails, so its exit code is the assertion.
	load := exec.Command(loader,
		"-addr", addr, "-requests", "120", "-rate", "400", "-seed", "7",
		"-whatif-delta-frac", "0.3", "-verify")
	out, err := load.CombinedOutput()
	if err != nil {
		t.Fatalf("liquidload: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "verified") {
		t.Fatalf("liquidload did not verify responses:\n%s", out)
	}
	t.Logf("liquidload:\n%s", out)

	// SIGTERM drains: exit 0, accounting line on stderr, manifest flushed.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	killer := time.AfterFunc(30*time.Second, func() { _ = cmd.Process.Kill() })
	waitErr := cmd.Wait()
	killer.Stop()
	stderrRest.WaitEOF()
	if waitErr != nil {
		t.Fatalf("drained exit: %v\nstderr: %s", waitErr, stderrRest.String())
	}
	if !strings.Contains(stderrRest.String(), "drained: received") {
		t.Fatalf("missing drain accounting line:\n%s", stderrRest.String())
	}

	mdata, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatalf("manifest not flushed on drain: %v", err)
	}
	var man telemetry.Manifest
	if err := json.Unmarshal(mdata, &man); err != nil {
		t.Fatalf("manifest not valid JSON: %v", err)
	}
	if man.Schema != "liquid-manifest/1" {
		t.Fatalf("manifest schema = %v", man.Schema)
	}
	if hits := man.Metrics.Counter("server/whatif_base_hits"); hits == 0 {
		t.Fatalf("no base-memo hits in the manifest (misses %d)", man.Metrics.Counter("server/whatif_base_misses"))
	}
}

// TestSIGTERMDrainWithInFlightRequest holds a request in flight across the
// SIGTERM and asserts the drain waits for it: the response completes, the
// daemon exits 0, and the drained accounting includes it.
func TestSIGTERMDrainWithInFlightRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and signals a subprocess")
	}
	dir := t.TempDir()
	daemon := buildBinary(t, dir, "liquid/cmd/liquidd", "liquidd")
	cmd, addr, stderrRest := startDaemon(t, daemon, "-drain-grace", "30s")
	defer func() { _ = cmd.Process.Kill() }()

	// An instance past the exact-cost limit runs ~1.5s of Monte-Carlo
	// scoring, so the signal reliably lands while the request is in flight.
	n := 3000
	ps := make([]string, n)
	for i := range ps {
		ps[i] = "0.51"
	}
	body := fmt.Sprintf(`{"instance": {"n": %d, "complete": true, "p": [%s]}, "mechanism": {"name": "approval-threshold", "alpha": 0.05}, "replications": 16, "deadline_ms": 10000}`,
		n, strings.Join(ps, ","))

	type result struct {
		out []byte
		err error
	}
	done := make(chan result, 1)
	go func() {
		out, err := httpPost("http://"+addr+"/v1/evaluate", body)
		done <- result{out, err}
	}()
	time.Sleep(300 * time.Millisecond) // request in flight
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	res := <-done
	if res.err != nil {
		t.Fatalf("in-flight request failed across drain: %v", res.err)
	}
	if !bytes.Contains(res.out, []byte(`"results"`)) {
		t.Fatalf("in-flight request did not complete: %s", res.out)
	}

	killer := time.AfterFunc(30*time.Second, func() { _ = cmd.Process.Kill() })
	waitErr := cmd.Wait()
	killer.Stop()
	stderrRest.WaitEOF()
	if waitErr != nil {
		t.Fatalf("drained exit: %v\nstderr: %s", waitErr, stderrRest.String())
	}
	if !strings.Contains(stderrRest.String(), "completed 1") {
		t.Fatalf("drain accounting missing the in-flight completion:\n%s", stderrRest.String())
	}
}

// httpPost is a minimal JSON POST returning the response body; any non-200
// status is an error.
func httpPost(url, body string) ([]byte, error) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return data, fmt.Errorf("status %d: %s", resp.StatusCode, data)
	}
	return data, nil
}

// TestDependencyCone pins what the daemon links. It answers each request
// once from the election and prob kernels, so the batch experiment
// scheduler and the experiment registry stay out of its import graph.
func TestDependencyCone(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go list -deps: %v\n%s", err, out)
	}
	for _, pkg := range strings.Fields(string(out)) {
		if pkg == "liquid/internal/engine" || pkg == "liquid/internal/experiment" {
			t.Errorf("liquidd depends on %s", pkg)
		}
	}
}
