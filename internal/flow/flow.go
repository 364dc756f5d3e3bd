// Package flow is the application layer of Figure 1: a small
// dynamic-workflow programming library in which tasks are generated at
// runtime by application logic — submitted as futures, awaited, and used to
// decide what to submit next — rather than declared as a static DAG in
// advance. This is the execution style of Colmena's steering loop and of
// Parsl/Dask-style apps, and it is exactly the dynamicity that makes
// dispatch-time resource allocation necessary.
//
// A Flow runs on any Executor. LocalExecutor executes tasks instantly
// against an allocation policy with the simulator's virtual resource
// monitor (for tests and fast experiments); wq.Manager's Submit method
// satisfies Executor directly, so the same application code drives a live
// manager/worker deployment.
package flow

import (
	"sync"

	"dynalloc/internal/allocator"
	"dynalloc/internal/metrics"
	"dynalloc/internal/resources"
	"dynalloc/internal/sched"
	"dynalloc/internal/sim"
	"dynalloc/internal/workflow"
)

// Executor runs one task to completion and delivers its outcome.
type Executor interface {
	Submit(t workflow.Task) <-chan metrics.TaskOutcome
}

// Future is the handle to a submitted task.
type Future struct {
	ch      <-chan metrics.TaskOutcome
	once    sync.Once
	outcome metrics.TaskOutcome
}

// Wait blocks until the task completes and returns its outcome. Wait is
// idempotent.
func (f *Future) Wait() metrics.TaskOutcome {
	f.once.Do(func() { f.outcome = <-f.ch })
	return f.outcome
}

// Flow tracks the futures of one application run and aggregates their
// metrics.
type Flow struct {
	exec Executor

	mu      sync.Mutex
	futures []*Future
	acc     metrics.Accumulator
	counted map[*Future]bool
}

// New creates a Flow over an executor.
func New(exec Executor) *Flow {
	return &Flow{exec: exec, counted: make(map[*Future]bool)}
}

// Submit generates one task at runtime: category names the kind of
// computation, consumption is its hidden resource behaviour (cores, memory
// MB, disk MB, runtime s).
func (f *Flow) Submit(category string, consumption workflow.Task) *Future {
	consumption.Category = category
	return f.SubmitTask(consumption)
}

// SubmitTask submits a fully specified task.
func (f *Flow) SubmitTask(t workflow.Task) *Future {
	fut := &Future{ch: f.exec.Submit(t)}
	f.mu.Lock()
	f.futures = append(f.futures, fut)
	f.mu.Unlock()
	return fut
}

// WaitAll blocks until every submitted task has completed and returns their
// outcomes in submission order.
func (f *Flow) WaitAll() []metrics.TaskOutcome {
	f.mu.Lock()
	futures := append([]*Future(nil), f.futures...)
	f.mu.Unlock()
	out := make([]metrics.TaskOutcome, len(futures))
	for i, fut := range futures {
		out[i] = fut.Wait()
		f.mu.Lock()
		if !f.counted[fut] {
			f.counted[fut] = true
			f.acc.Add(out[i])
		}
		f.mu.Unlock()
	}
	return out
}

// Metrics returns the accumulated metrics of every outcome retrieved so far
// via WaitAll.
func (f *Flow) Metrics() *metrics.Accumulator {
	f.mu.Lock()
	defer f.mu.Unlock()
	acc := f.acc
	return &acc
}

// LocalExecutor executes tasks immediately (no worker pool, no wall-clock
// delay) under an allocation policy, enforcing allocations with the
// simulator's virtual resource monitor and retrying exhausted attempts with
// escalated allocations. It assigns submission IDs in order, preserving the
// significance convention. Safe for concurrent use; execution is
// serialized, so outcomes are deterministic for a fixed submission order.
type LocalExecutor struct {
	Policy allocator.Policy
	Model  sim.ConsumptionModel
	// MaxAttempts is the retry limit: a task exhausted more often is abandoned,
	// its outcome ending in a metrics.Failed attempt (0 = sim.DefaultMaxAttempts).
	MaxAttempts int

	mu     sync.Mutex
	nextID int
}

// Submit implements Executor.
func (e *LocalExecutor) Submit(t workflow.Task) <-chan metrics.TaskOutcome {
	ch := make(chan metrics.TaskOutcome, 1)
	e.mu.Lock()
	defer e.mu.Unlock()
	e.nextID++
	limit := e.MaxAttempts
	if limit <= 0 {
		limit = sim.DefaultMaxAttempts
	}
	st := sched.NewTask(e.nextID, t.Category, t.Consumption, t.Runtime(), 0)
	st.RunAlone(e.Policy, limit, func(alloc resources.Vector) (float64, []resources.Kind) {
		return sim.EvaluateAttempt(e.Model, t.Consumption, t.Runtime(), alloc)
	})
	ch <- st.Outcome
	return ch
}
