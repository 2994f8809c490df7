package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func testAddr(ts *httptest.Server) string { return strings.TrimPrefix(ts.URL, "http://") }

// An open loop times each request from when it was due, so a stall on
// the one connection is charged to every request queued behind it, while
// their round trips stay short.
func TestOpenLoopTimesFromTheDueTime(t *testing.T) {
	const stall = 80 * time.Millisecond
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.Write([]byte("ok"))
	}))
	defer ts.Close()
	k, err := dial(testAddr(ts))
	if err != nil {
		t.Fatal(err)
	}
	defer k.close()

	const n = 8
	reqs := make([]*request, n)
	due := make([]time.Duration, n)
	for i := range reqs {
		reqs[i] = newRequest(kindEvaluate, "/x", 200, []byte("{}"))
		due[i] = time.Duration(i) * 5 * time.Millisecond
	}
	origin := time.Now()
	samples := openLoop([]*conn{k}, origin, reqs, due, func(int) bool { return true }, origin.Add(time.Minute))
	for i, s := range samples {
		if s.err != nil || s.status != 200 || string(s.body) != "ok" {
			t.Fatalf("request %d: status %d body %q err %v", i, s.status, s.body, s.err)
		}
		if i == 0 {
			continue
		}
		// Request i was due 5i ms in and could not be sent before the
		// stalled first reply.
		if min := stall - due[i]; s.latency() < min {
			t.Errorf("request %d latency %v, want at least %v (timed from due)", i, s.latency(), min)
		}
		if s.wait() < stall-due[i]-10*time.Millisecond {
			t.Errorf("request %d waited %v for the connection, want about %v", i, s.wait(), stall-due[i])
		}
		if rtt := s.done - s.sent; rtt > stall/2 {
			t.Errorf("request %d round trip %v includes the stall", i, rtt)
		}
		if s.late() < 0 {
			t.Errorf("request %d negative lateness %v", i, s.late())
		}
	}
}

func TestOpenLoopAbandonsPastTheDrainCap(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer ts.Close()
	k, err := dial(testAddr(ts))
	if err != nil {
		t.Fatal(err)
	}
	defer k.close()
	reqs := []*request{newRequest(kindEvaluate, "/x", 200, []byte("{}"))}
	origin := time.Now()
	s := openLoop([]*conn{k}, origin, reqs, []time.Duration{0}, func(int) bool { return false }, origin.Add(-time.Second))
	if !s[0].abandoned || s[0].err != errAbandoned {
		t.Fatalf("request past the drain cap: %+v", s[0])
	}
}

func TestReadResponseFraming(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789"), 700)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/chunked":
			w.Write(big[:3000])
			w.(http.Flusher).Flush()
			w.Write(big[3000:])
		case "/close":
			w.Header().Set("Connection", "close")
			w.WriteHeader(http.StatusTeapot)
			w.Write([]byte("bye"))
		default:
			w.Write([]byte("plain"))
		}
	}))
	defer ts.Close()
	k, err := dial(testAddr(ts))
	if err != nil {
		t.Fatal(err)
	}
	defer k.close()
	get := func(path string, keep bool) (int, []byte) {
		t.Helper()
		status, body, err := k.do([][]byte{[]byte("GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n")}, keep)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return status, body
	}
	if status, body := get("/chunked", true); status != 200 || !bytes.Equal(body, big) {
		t.Fatalf("chunked reply: status %d, %d bytes", status, len(body))
	}
	if _, body := get("/chunked", false); body != nil {
		t.Fatalf("dropped body returned %d bytes", len(body))
	}
	if status, body := get("/close", true); status != http.StatusTeapot || string(body) != "bye" || k.c != nil {
		t.Fatalf("close reply: status %d body %q, connection kept: %v", status, body, k.c != nil)
	}
	// The next request redials.
	if status, body := get("/", true); status != 200 || string(body) != "plain" {
		t.Fatalf("after redial: status %d body %q", status, body)
	}
}

func TestClosedLoopWrapsItsPool(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer ts.Close()
	conns := make([]*conn, 2)
	for i := range conns {
		var err error
		if conns[i], err = dial(testAddr(ts)); err != nil {
			t.Fatal(err)
		}
		defer conns[i].close()
	}
	pool := []*request{newRequest(kindEvaluate, "/a", 200, []byte("{}")), newRequest(kindEvaluate, "/b", 200, []byte("{}"))}
	origin := time.Now()
	samples, wraps := closedLoop(conns, origin, pool, func(int) bool { return false }, origin.Add(50*time.Millisecond))
	if len(samples) < 4 || wraps < 1 {
		t.Fatalf("%d samples, %d wraps from a pool of 2 in 50ms", len(samples), wraps)
	}
	for _, s := range samples {
		if s.err != nil || s.status != 200 || s.idx >= len(pool) {
			t.Fatalf("closed-loop sample %+v", s)
		}
	}
}
