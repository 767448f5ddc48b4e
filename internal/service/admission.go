package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrOverloaded marks a request shed by admission control: the bounded
// queue in front of the worker pool is full, and letting the request wait
// would only grow everyone's latency. The API layer maps it to 429 with a
// Retry-After computed from the live p99 (Engine.RetryAfter).
var ErrOverloaded = errors.New("service: overloaded, admission queue full")

// Class is a request's scheduling priority through the worker pool.
type Class int

const (
	// ClassInteractive is the default: latency-sensitive requests
	// (/v1/match, /v1/analyze) that run ahead of background work.
	ClassInteractive Class = iota
	// ClassBackground marks throughput work — self-join segments, bulk
	// ingest batches — that yields to interactive traffic: a background
	// task does not compete for a worker slot while any interactive task
	// is waiting for one.
	ClassBackground
)

// String names the class for annotations and logs.
func (c Class) String() string {
	if c == ClassBackground {
		return "background"
	}
	return "interactive"
}

// classKey carries a Class through a context.
type classKey struct{}

// WithClass marks every engine dispatch under ctx with the given scheduling
// class. Contexts without a mark are ClassInteractive.
func WithClass(ctx context.Context, c Class) context.Context {
	return context.WithValue(ctx, classKey{}, c)
}

// ClassOf returns the scheduling class marked on ctx (ClassInteractive when
// unmarked).
func ClassOf(ctx context.Context) Class {
	if c, ok := ctx.Value(classKey{}).(Class); ok {
		return c
	}
	return ClassInteractive
}

// AdmissionConfig bounds the request queue in front of the worker pool.
type AdmissionConfig struct {
	// MaxQueue is how many admitted requests may be waiting beyond the
	// worker pool before new ones are shed with ErrOverloaded: the
	// admission capacity is Workers + MaxQueue in-flight requests. 0
	// disables admission control (the queue is unbounded, the pre-PR-7
	// behavior); cmd/serve defaults to 64.
	MaxQueue int
}

// yieldPoll is how often a yielded background task re-checks for waiting
// interactive work. Short enough that a freed slot is claimed promptly,
// long enough that parked background tasks cost ~nothing.
const yieldPoll = 500 * time.Microsecond

// admission is the engine's bounded front queue plus the priority gate.
type admission struct {
	capacity int // max in-flight admitted requests; 0 = unlimited
}

// AdmitRequest reserves one slot of the bounded admission queue for an
// in-flight request, returning a release function the caller must invoke
// (exactly once; extra calls are absorbed) when the request finishes. When
// the queue is over capacity the request is shed: release is nil and the
// error wraps ErrOverloaded. With admission control disabled every request
// is admitted but still counted, so /metrics reports true in-flight depth
// either way.
func (e *Engine) AdmitRequest() (release func(), err error) {
	n := e.ctr.inflight.Add(1)
	if e.adm.capacity > 0 && int(n) > e.adm.capacity {
		e.ctr.inflight.Add(-1)
		e.ctr.shed.Add(1)
		return nil, fmt.Errorf("%w: %d in flight, capacity %d", ErrOverloaded, n-1, e.adm.capacity)
	}
	e.ctr.admitted.Add(1)
	var once sync.Once
	return func() { once.Do(func() { e.ctr.inflight.Add(-1) }) }, nil
}

// RetryAfter estimates when a shed client should try again: the time the
// pool needs to drain the current queue, from the live p99 match latency.
// Clamped to [1s, 30s] — Retry-After is a coarse hint, not a schedule.
func (e *Engine) RetryAfter() time.Duration {
	waiting := e.ctr.inflight.Load() - int64(e.workers)
	if waiting < 1 {
		waiting = 1
	}
	p99us := e.ctr.matchLatency.Snapshot().Quantile(0.99)
	if p99us <= 0 {
		p99us = 50_000 // no latency signal yet: assume 50ms service time
	}
	d := time.Duration(float64(waiting) / float64(e.workers) * p99us * float64(time.Microsecond))
	if d < time.Second {
		d = time.Second
	}
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}

// yieldToInteractive parks a background task while any interactive task is
// waiting for a worker slot. Strict priority: background work can wait
// indefinitely under sustained interactive load — it is all checkpointed
// (self-join segments) or client-paced (bulk ingest chunks), so starvation
// costs progress, not correctness.
func (e *Engine) yieldToInteractive(ctx context.Context) error {
	if e.ctr.interactiveWaiting.Load() == 0 {
		return nil
	}
	e.ctr.yields.Add(1)
	t := time.NewTicker(yieldPoll)
	defer t.Stop()
	for e.ctr.interactiveWaiting.Load() > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
	return nil
}

// AdmissionSnapshot is the /metrics view of the bounded admission queue and
// the priority gate.
type AdmissionSnapshot struct {
	// Enabled reports whether the queue bound is active; Capacity is the
	// in-flight request bound (0 when disabled).
	Enabled  bool `json:"enabled"`
	Capacity int  `json:"capacity,omitempty"`
	// Inflight is the number of admitted requests currently in flight;
	// InteractiveWaiting how many interactive tasks are blocked on a
	// worker slot right now.
	Inflight           int64 `json:"inflight"`
	InteractiveWaiting int64 `json:"interactive_waiting"`
	// Admitted and Shed count admission decisions; BackgroundYields counts
	// background tasks that parked to let interactive work run first.
	Admitted         int64 `json:"admitted"`
	Shed             int64 `json:"shed"`
	BackgroundYields int64 `json:"background_yields"`
}
