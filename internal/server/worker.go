package server

// The worker pool. Every worker reads one FIFO channel of admitted tasks,
// so a slow evaluation holds one worker while the others drain the queue.
// Workers recover panics into typed 500 errors, so one poisoned request
// cannot take a worker down. A task runs once: every answer is a pure
// function of the request, so a failed evaluation would fail again.

import (
	"context"
	"fmt"
	"net/http"
	"runtime/debug"
	"sync"
)

// task is one admitted request waiting for a worker.
type task struct {
	ctx context.Context
	run func(ctx context.Context) error
	// release returns the task's admission reservation; the worker calls it
	// exactly once, when the task finishes or is skipped — not when the
	// handler gives up, because an abandoned task still occupies a worker.
	release func()
	// done receives exactly one completion error (buffered: the handler may
	// have given up on the deadline and stopped listening).
	done chan error
}

// pool is the worker set and its one queue.
type pool struct {
	tasks chan *task
	wg    sync.WaitGroup
	// chaos, when set, is invoked before each task runs (test-only fault
	// injection; see Config.ChaosHook).
	chaos func(worker int, seq uint64) error
}

// newPool starts workers goroutines reading one queue of the given
// capacity.
func newPool(workers, capacity int, chaos func(int, uint64) error) *pool {
	p := &pool{tasks: make(chan *task, capacity), chaos: chaos}
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go p.worker(w)
	}
	return p
}

// close drains the queue: no new tasks are sent by the caller, queued
// tasks still run (their contexts decide how far they get), and the
// workers exit.
func (p *pool) close() {
	close(p.tasks)
	p.wg.Wait()
}

func (p *pool) worker(w int) {
	defer p.wg.Done()
	var seq uint64
	for t := range p.tasks {
		err := p.execute(w, seq, t)
		if t.release != nil {
			t.release()
		}
		t.done <- err
		seq++
	}
}

// execute runs one task once, converting panics into typed 500s.
func (p *pool) execute(w int, seq uint64, t *task) (err error) {
	// A task whose deadline already passed while queued is not worth
	// starting; the handler has counted it expired.
	if err := t.ctx.Err(); err != nil {
		return err
	}
	defer func() {
		if v := recover(); v != nil {
			err = &Error{
				Code:    CodeInternalPanic,
				Message: fmt.Sprintf("worker %d recovered a panic: %v\n%s", w, v, debug.Stack()),
				Status:  http.StatusInternalServerError,
			}
		}
	}()
	if p.chaos != nil {
		if err := p.chaos(w, seq); err != nil {
			return err
		}
	}
	return t.run(t.ctx)
}
