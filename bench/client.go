package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// conn is one keep-alive HTTP/1.1 connection to the system under test. It
// writes pre-encoded requests with one writev and parses replies without
// allocating, so the load generator spends as little of the shared CPUs
// and as little garbage-collection time as possible on itself.
type conn struct {
	addr    string
	c       net.Conn
	br      *bufio.Reader
	scratch [][]byte
}

func dial(addr string) (*conn, error) {
	k := &conn{addr: addr}
	return k, k.redial()
}

func (k *conn) redial() error {
	k.close()
	c, err := net.DialTimeout("tcp", k.addr, 5*time.Second)
	if err != nil {
		return fmt.Errorf("dial %s: %w", k.addr, err)
	}
	k.c, k.br = c, bufio.NewReaderSize(c, 16<<10)
	return nil
}

func (k *conn) close() {
	if k.c != nil {
		_ = k.c.Close() // a connection being replaced has nothing left to report
		k.c = nil
	}
}

// do sends one pre-encoded request and reads its reply. The body is
// returned only when keep is set; otherwise it is read and dropped.
func (k *conn) do(wire [][]byte, keep bool) (status int, body []byte, err error) {
	if k.c == nil {
		if err := k.redial(); err != nil {
			return 0, nil, err
		}
	}
	bufs := net.Buffers(append(k.scratch[:0], wire...))
	k.scratch = bufs[:0]
	if _, err := bufs.WriteTo(k.c); err != nil {
		k.close()
		return 0, nil, fmt.Errorf("write: %w", err)
	}
	status, body, closing, err := k.readResponse(keep)
	if err != nil || closing {
		k.close()
	}
	return status, body, err
}

// readResponse parses one HTTP/1.1 response: the status code, the
// Content-Length or chunked body, and whether the server will close the
// connection. It allocates only the body it returns.
func (k *conn) readResponse(keep bool) (status int, body []byte, closing bool, err error) {
	line, err := k.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, false, fmt.Errorf("read status: %w", err)
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, false, fmt.Errorf("bad status line %q", line)
	}
	if status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return 0, nil, false, fmt.Errorf("bad status line %q", line)
	}
	length, chunked := -1, false
	for {
		line, err = k.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, false, fmt.Errorf("read header: %w", err)
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		name, value, _ := bytes.Cut(line, []byte(":"))
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(value)); err != nil {
				return 0, nil, false, fmt.Errorf("bad Content-Length %q", value)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		case bytes.EqualFold(name, []byte("Connection")):
			closing = bytes.EqualFold(value, []byte("close"))
		}
	}
	switch {
	case chunked:
		body, err = k.readChunked(keep)
	case length >= 0:
		body, err = k.readN(length, keep)
	default:
		return 0, nil, false, errors.New("response without a length")
	}
	return status, body, closing, err
}

// readN reads n body bytes, keeping them only when asked.
func (k *conn) readN(n int, keep bool) ([]byte, error) {
	if keep {
		b := make([]byte, n)
		_, err := io.ReadFull(k.br, b)
		return b, err
	}
	_, err := k.br.Discard(n)
	return nil, err
}

func (k *conn) readChunked(keep bool) ([]byte, error) {
	var body []byte
	for {
		line, err := k.br.ReadSlice('\n')
		if err != nil {
			return nil, fmt.Errorf("read chunk size: %w", err)
		}
		size, err := strconv.ParseInt(string(bytes.TrimSpace(bytes.SplitN(line, []byte(";"), 2)[0])), 16, 64)
		if err != nil {
			return nil, fmt.Errorf("bad chunk size %q", line)
		}
		if size == 0 {
			// Trailers (none expected) end with an empty line.
			for {
				if line, err = k.br.ReadSlice('\n'); err != nil || len(bytes.TrimSpace(line)) == 0 {
					return body, err
				}
			}
		}
		chunk, err := k.readN(int(size), keep)
		if err != nil {
			return nil, err
		}
		body = append(body, chunk...)
		if _, err := k.br.Discard(2); err != nil {
			return nil, err
		}
	}
}

// sample is one request's client-side record. Times are offsets from the
// run's origin. For an open loop, due is the scheduled send time, pickup
// is when a connection became free to take it (due or later), and sent is
// when its bytes went out; latency runs from due, so a stall is charged to
// every request it delays.
type sample struct {
	idx               int
	due, pickup, sent time.Duration
	done              time.Duration
	status            int
	body              []byte
	err               error
	abandoned         bool
}

// latency is the request's time from due to reply.
func (s *sample) latency() time.Duration { return s.done - s.due }

// wait is how long the request queued for a free connection.
func (s *sample) wait() time.Duration { return max(0, s.pickup-s.due) }

// late is how far behind its schedule the generator sent the request once
// a connection was free: timer and scheduler delay, not queueing.
func (s *sample) late() time.Duration { return s.sent - max(s.due, s.pickup) }

var errAbandoned = errors.New("abandoned: the phase ran past its drain cap")

// sleep blocks for d in nanosleep(2). The Go timer behind time.Sleep
// wakes up to a millisecond late here, a fifth of serve_small's p99
// limit; nanosleep's overshoot is the kernel's timer slack, about 50µs.
func sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// openLoop sends reqs[i] at origin+due[i] over conns, each request going
// to whichever connection is free first, and returns one sample per
// request. A request still unsent at drainBy is abandoned rather than
// sent, which bounds a run against a system that has fallen far behind.
func openLoop(conns []*conn, origin time.Time, reqs []*request, due []time.Duration, keep func(int) bool, drainBy time.Time) []sample {
	out := make([]sample, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, k := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				s := &out[i]
				s.idx, s.due = i, due[i]
				s.pickup = time.Since(origin)
				sleep(s.due - s.pickup)
				s.sent = time.Since(origin)
				if time.Now().After(drainBy) {
					s.err, s.abandoned, s.done = errAbandoned, true, s.sent
					continue
				}
				s.status, s.body, s.err = k.do(reqs[i].wire, keep(i))
				s.done = time.Since(origin)
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop keeps every connection busy with back-to-back requests from
// pool, in order and wrapping around if the pool runs out, until the
// deadline. It returns the samples in send order per connection and how
// many times the pool wrapped.
func closedLoop(conns []*conn, origin time.Time, pool []*request, keep func(int) bool, until time.Time) ([]sample, int) {
	per := make([][]sample, len(conns))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w, k := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(until) {
				n := int(next.Add(1) - 1)
				i := n % len(pool)
				s := sample{idx: i}
				s.due = time.Since(origin)
				s.pickup, s.sent = s.due, s.due
				s.status, s.body, s.err = k.do(pool[i].wire, n < len(pool) && keep(i))
				s.done = time.Since(origin)
				per[w] = append(per[w], s)
			}
		}()
	}
	wg.Wait()
	var out []sample
	for _, p := range per {
		out = append(out, p...)
	}
	return out, int(next.Load()-1) / len(pool)
}
