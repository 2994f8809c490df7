package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is a process of the system under test. Its standard error is kept
// and scanned for the "serving on http://ADDR" lines the binaries print
// once they listen.
type child struct {
	cmd    *exec.Cmd
	stderr *lineLog
}

// startChild starts bin; its standard output goes to stdout (nil
// discards it).
func startChild(stdout io.Writer, bin string, args ...string) (*child, error) {
	c := &child{cmd: exec.Command(bin, args...), stderr: newLineLog()}
	c.cmd.Stdout, c.cmd.Stderr = stdout, c.stderr
	// A child outlives no benchmark that is killed mid-run.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	return c, nil
}

// waitAddr waits for the child to print "<prefix> http://ADDR" and returns
// ADDR.
func (c *child) waitAddr(prefix string, timeout time.Duration) (string, error) {
	deadline := time.After(timeout)
	for {
		if addr, ok := c.stderr.find(prefix + " http://"); ok {
			return strings.TrimSuffix(strings.Fields(addr)[0], "/debug/"), nil
		}
		select {
		case <-c.stderr.changed():
		case <-deadline:
			return "", fmt.Errorf("%s printed no %q line within %v; stderr:\n%s", c.cmd.Path, prefix, timeout, c.stderr.String())
		}
	}
}

// stop sends SIGTERM, waits for the exit (killing after a grace period),
// and returns the process state, which carries its rusage.
func (c *child) stop() (*os.ProcessState, error) {
	_ = c.cmd.Process.Signal(syscall.SIGTERM) // an already-exited child is reaped by Wait below
	done := make(chan error, 1)
	go func() { done <- c.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return c.cmd.ProcessState, fmt.Errorf("%s: %w; stderr:\n%s", c.cmd.Path, err, c.stderr.String())
		}
		return c.cmd.ProcessState, nil
	case <-time.After(15 * time.Second):
		_ = c.cmd.Process.Kill() // the grace period is over; Wait reports the outcome
		<-done
		return c.cmd.ProcessState, fmt.Errorf("%s did not drain within 15s", c.cmd.Path)
	}
}

// cpuTime reads the child's user+system time so far from /proc.
func (c *child) cpuTime() (time.Duration, error) {
	return procCPU(c.cmd.Process.Pid)
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times.
const clockTick = 100

func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	rest := b[bytes.LastIndexByte(b, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad times", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTick, nil
}

// rusageOf returns a finished process's CPU time and peak resident set.
func rusageOf(ps *os.ProcessState) (cpu time.Duration, peakKB int64) {
	if ps == nil {
		return 0, 0
	}
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return ps.UserTime() + ps.SystemTime(), 0
	}
	return ps.UserTime() + ps.SystemTime(), ru.Maxrss
}

// selfUsage returns this process's CPU time and peak resident set.
func selfUsage() (cpu time.Duration, peakKB int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime), ru.Maxrss
}

// memStats is the subset of runtime.MemStats the runtime layer reports.
type memStats struct {
	TotalAlloc   uint64
	Mallocs      uint64
	NumGC        uint32
	PauseTotalNs uint64
}

func (m memStats) minus(o memStats) memStats {
	return memStats{m.TotalAlloc - o.TotalAlloc, m.Mallocs - o.Mallocs, m.NumGC - o.NumGC, m.PauseTotalNs - o.PauseTotalNs}
}

// scrapeMemStats reads memstats from a process's expvar endpoint.
func scrapeMemStats(ctx context.Context, addr string) (memStats, error) {
	var v struct {
		MemStats memStats `json:"memstats"`
	}
	err := getJSON(ctx, "http://"+addr+"/debug/vars", &v)
	return v.MemStats, err
}

var plainClient = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 5 * time.Second}

func getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := plainClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// lineLog is an io.Writer that keeps what a child writes and wakes
// waiters whenever more arrives.
type lineLog struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	wake chan struct{}
}

func newLineLog() *lineLog { return &lineLog{wake: make(chan struct{})} }

func (l *lineLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(p)
	close(l.wake)
	l.wake = make(chan struct{})
	return len(p), nil
}

// changed returns a channel closed at the next write.
func (l *lineLog) changed() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.wake
}

// find returns the rest of the first complete line containing marker,
// after the marker.
func (l *lineLog) find(marker string) (string, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.buf.Bytes()
	for _, line := range strings.Split(string(b[:bytes.LastIndexByte(b, '\n')+1]), "\n") {
		if i := strings.Index(line, marker); i >= 0 {
			return line[i+len(marker):], true
		}
	}
	return "", false
}

func (l *lineLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}
