package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"liquid/internal/server"
)

// TestScheduleDeterministic: the same seed must yield byte-identical
// request schedules — that is what makes a load run reproducible.
func TestScheduleDeterministic(t *testing.T) {
	a, err := buildSchedule(42, 50, 15, 4, 1000, 0.2, 0.15, 0.2, 0.1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildSchedule(42, 50, 15, 4, 1000, 0.2, 0.15, 0.2, 0.1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	c, err := buildSchedule(43, 50, 15, 4, 1000, 0.2, 0.15, 0.2, 0.1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestVerifyInProcess: responses the daemon's handler gave pass -verify,
// every kind that completes counted, and one changed byte in one of them
// fails it, naming the request.
func TestVerifyInProcess(t *testing.T) {
	reqs, err := buildSchedule(7, 80, 15, 4, 1000, 0.2, 0.15, 0.2, 0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{Shards: 1})
	defer srv.Close()
	h := srv.Handler()
	outcomes := make([]outcome, len(reqs))
	completed := map[string]int{}
	ok, last := 0, -1
	for i, rq := range reqs {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, rq.path, bytes.NewReader(rq.body)))
		outcomes[i] = outcome{status: rec.Code, body: rec.Body.Bytes()}
		if rec.Code == http.StatusOK {
			completed[rq.kind]++
			ok, last = ok+1, i
		}
	}
	for _, k := range []string{"evaluate", "fault", "whatif", "whatif-delta"} {
		if completed[k] == 0 {
			t.Fatalf("no %s request completed: %v", k, completed)
		}
	}
	verified, err := verifyInProcess(reqs, outcomes)
	if err != nil {
		t.Fatal(err)
	}
	if verified != ok {
		t.Fatalf("verified %d responses, want %d", verified, ok)
	}
	outcomes[last].body = bytes.Replace(outcomes[last].body, []byte(":"), []byte(": "), 1)
	if _, err := verifyInProcess(reqs, outcomes); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("request %d ", last)) {
		t.Fatalf("a changed response passed -verify or was misnamed: %v", err)
	}
}

// TestScheduleBodiesMatchServerContract decodes every generated body with
// the daemon's own parser: non-malformed requests must be accepted,
// malformed ones must draw a typed 400.
func TestScheduleBodiesMatchServerContract(t *testing.T) {
	reqs, err := buildSchedule(7, 80, 15, 4, 1000, 0.2, 0.15, 0.2, 0.1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for i, rq := range reqs {
		kinds[rq.kind]++
		switch rq.kind {
		case "evaluate", "fault":
			if _, aerr := server.ParseEvaluateRequest(rq.body); aerr != nil {
				t.Fatalf("request %d (%s) rejected by the daemon parser: %v", i, rq.kind, aerr)
			}
		case "whatif":
			// Cyclic profiles are legal wire input (the daemon 400s them at
			// resolution); the parse itself must succeed.
			if _, aerr := server.ParseWhatIfRequest(rq.body); aerr != nil {
				t.Fatalf("request %d (whatif) rejected by the daemon parser: %v", i, aerr)
			}
		case "whatif-delta":
			parsed, aerr := server.ParseWhatIfRequest(rq.body)
			if aerr != nil {
				t.Fatalf("request %d (whatif-delta) rejected by the daemon parser: %v", i, aerr)
			}
			if len(parsed.Deltas) == 0 {
				t.Fatalf("request %d (whatif-delta) carries no deltas", i)
			}
		case "malformed":
			if _, aerr := server.ParseEvaluateRequest(rq.body); aerr == nil {
				t.Fatalf("request %d: malformed body accepted", i)
			}
		default:
			t.Fatalf("request %d: unknown kind %q", i, rq.kind)
		}
	}
	for _, k := range []string{"evaluate", "fault", "whatif", "whatif-delta", "malformed"} {
		if kinds[k] == 0 {
			t.Fatalf("schedule has no %s requests: %v", k, kinds)
		}
	}
}

func TestSlowReaderDeliversEverything(t *testing.T) {
	payload := bytes.Repeat([]byte("abc"), 100)
	r := &slowReader{data: payload, chunk: 7, delay: time.Microsecond}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("slow reader corrupted the payload: %d bytes vs %d", len(got), len(payload))
	}
}
