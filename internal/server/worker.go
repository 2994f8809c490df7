package server

// The shard-per-core worker pool. Each shard owns one goroutine and one
// bounded channel; a request is hashed onto a shard by arrival sequence, so
// a single slow evaluation delays only its shard's queue, not the whole
// server. Workers recover panics into typed 500 errors, so one poisoned
// request cannot take a shard down. A task runs once: every answer is a
// pure function of the request, so a failed evaluation would fail again.

import (
	"context"
	"fmt"
	"net/http"
	"runtime/debug"
	"sync"
)

// task is one admitted request waiting for a shard.
type task struct {
	ctx context.Context
	run func(ctx context.Context) error
	// release returns the task's admission reservation; the worker calls it
	// exactly once, when the task finishes or is skipped — not when the
	// handler gives up, because an abandoned task still occupies its shard.
	release func()
	// done receives exactly one completion error (buffered: the handler may
	// have given up on the deadline and stopped listening).
	done chan error
}

// pool is the shard-per-core worker set.
type pool struct {
	shards []chan *task
	wg     sync.WaitGroup
	// chaos, when set, is invoked before each task runs (test-only fault
	// injection; see Config.ChaosHook).
	chaos func(shard int, seq uint64) error
}

func newPool(shards, queueDepth int, chaos func(int, uint64) error) *pool {
	p := &pool{
		shards: make([]chan *task, shards),
		chaos:  chaos,
	}
	for i := range p.shards {
		p.shards[i] = make(chan *task, queueDepth)
		p.wg.Add(1)
		go p.worker(i)
	}
	return p
}

// submit queues t on its sequence's shard, reporting false if the shard's
// queue is full (the caller sheds).
func (p *pool) submit(seq uint64, t *task) bool {
	select {
	case p.shards[seq%uint64(len(p.shards))] <- t:
		return true
	default:
		return false
	}
}

// close drains the shards: no new submissions are accepted by the caller,
// queued tasks still run (their contexts decide how far they get), and the
// workers exit.
func (p *pool) close() {
	for _, ch := range p.shards {
		close(ch)
	}
	p.wg.Wait()
}

func (p *pool) worker(shard int) {
	defer p.wg.Done()
	var seq uint64
	for t := range p.shards[shard] {
		err := p.execute(shard, seq, t)
		if t.release != nil {
			t.release()
		}
		t.done <- err
		seq++
	}
}

// execute runs one task once, converting panics into typed 500s.
func (p *pool) execute(shard int, seq uint64, t *task) (err error) {
	// A task whose deadline already passed while queued is not worth
	// starting; the handler has counted it expired.
	if err := t.ctx.Err(); err != nil {
		return err
	}
	defer func() {
		if v := recover(); v != nil {
			err = &Error{
				Code:    CodeInternalPanic,
				Message: fmt.Sprintf("shard %d recovered a panic: %v\n%s", shard, v, debug.Stack()),
				Status:  http.StatusInternalServerError,
			}
		}
	}()
	if p.chaos != nil {
		if err := p.chaos(shard, seq); err != nil {
			return err
		}
	}
	return t.run(t.ctx)
}
