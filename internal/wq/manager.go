package wq

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dynalloc/internal/allocator"
	"dynalloc/internal/metrics"
	"dynalloc/internal/resources"
	"dynalloc/internal/sched"
	"dynalloc/internal/sim"
	"dynalloc/internal/wire"
	"dynalloc/internal/workflow"
)

// ErrManagerClosed reports that the manager was closed while a workflow (or
// submission) still had unfinished tasks. It is distinguishable from a
// context cancellation so callers can tell "my deadline passed" from "the
// engine went away under me".
var ErrManagerClosed = errors.New("wq: manager closed")

// Manager is the live task scheduler: it accepts worker connections,
// requests an allocation for every ready task from the policy, places tasks
// on workers with free capacity, escalates failed allocations, and feeds
// completed tasks' resource records back to the policy.
//
// Robustness model: worker loss is detected by a heartbeat sweeper (see
// WithHeartbeat) rather than per-dispatch watchdog timers; every eviction or
// exhaustion counts against an optional per-task retry limit (see
// WithRetryLimit); and Close drains in-flight work before waking blocked
// RunWorkflow callers with ErrManagerClosed.
type Manager struct {
	// start anchors the manager's trace clock: task submit/done times are
	// recorded as wall-clock seconds since it, the live analogue of the
	// simulators' virtual clock.
	start time.Time

	// srv is the connection lifecycle: listener, readers, sweep tick, drain.
	srv *wire.Server

	mu      sync.Mutex
	cond    *sync.Cond
	workers map[int]*managedWorker
	tasks   map[int]*taskState
	// sched owns the ready queue (tasks awaiting placement, keyed by task ID),
	// the capacity ledger, the dispatch pass and the settle transitions;
	// driven under mu.
	sched   *sched.Core
	nextWID int
	nextTID int // highest task ID ever registered, on any path
	closed  bool

	stats     Stats
	perWorker []*WorkerStats // every worker that ever connected, indexed by ID

	// settling is true while a reader settles its read's results under mu,
	// and committing lists the workers it has staged task frames for: their
	// commits wait for the read's end, so a writer that another P runs at
	// once still takes the read's frames in one write.
	settling   bool
	committing []*managedWorker

	// options
	hbInterval   time.Duration
	hbTimeout    time.Duration
	drainTimeout time.Duration
	tracer       Tracer
}

// managedWorker is a connected worker: its row in the scheduler's capacity
// ledger and its counters (both guarded by Manager.mu), and its connection,
// whose reader goroutine serves it as a wire.Session and whose outbox carries
// its task frames and pings.
type managedWorker struct {
	*sched.Worker
	m     *Manager
	stats *WorkerStats
	c     *wire.Conn
	res   Message // the reader's decode scratch
	// read holds the result frames of the current socket read until Idle (or
	// Closed) settles them. Only the reader goroutine touches it.
	read []Message
	// lastSeen is the UnixNano of the last socket read that brought a frame
	// from this worker. Atomic so the reader goroutine refreshes it without
	// touching any lock.
	lastSeen atomic.Int64
}

type taskState struct {
	// Task is the scheduler core's record: dispatch header, attempt ledger,
	// terminal state. Which worker runs it is the capacity ledger's to say.
	sched.Task
	// notify is non-nil for a Submit-ted task: its outcome leaves through it,
	// so its state is deleted from m.tasks at the terminal transition and the
	// live set stays bounded by in-flight work. RunWorkflow tasks stay until
	// their outcomes are collected.
	notify chan metrics.TaskOutcome
	// attemptsBuf inlines the first attempt record so the common
	// one-attempt-and-done task never heap-allocates its attempts slice.
	attemptsBuf [1]metrics.Attempt
}

// Option configures a Manager.
type Option func(*Manager)

// WithHeartbeat enables the liveness sweeper: every interval the manager
// pings each worker, and a worker from which no frame (pong or result) has
// arrived within timeout is declared lost — its connection is closed and its
// in-flight tasks requeue through the eviction path. A non-positive timeout
// defaults to 4×interval. Heartbeats are off when interval is zero.
func WithHeartbeat(interval, timeout time.Duration) Option {
	return func(m *Manager) {
		m.hbInterval = interval
		m.hbTimeout = timeout
	}
}

// WithRetryLimit sets the retry limit (sched.Core.RetryLimit): a task evicted
// or exhausted more than n times is abandoned, its outcome ending in a
// metrics.Failed attempt, instead of looping forever on a doomed allocation or
// a flapping pool. Zero (the default) retries without bound.
func WithRetryLimit(n int) Option {
	return func(m *Manager) { m.sched.RetryLimit = n }
}

// WithDrainTimeout bounds how long Close waits for in-flight results before
// giving up and waking blocked callers. The default is 5s.
func WithDrainTimeout(d time.Duration) Option {
	return func(m *Manager) { m.drainTimeout = d }
}

// WithTracer streams lifecycle events (dispatch, result, eviction, requeue,
// heartbeat timeout, drain) to t. See the Tracer contract.
func WithTracer(t Tracer) Option {
	return func(m *Manager) { m.tracer = t }
}

// NewManager creates a manager around an allocation policy.
func NewManager(policy allocator.Policy, opts ...Option) *Manager {
	m := &Manager{
		start:        time.Now(),
		workers:      make(map[int]*managedWorker),
		tasks:        make(map[int]*taskState),
		drainTimeout: 5 * time.Second,
	}
	m.cond = sync.NewCond(&m.mu)
	// The live engine scans the whole queue on every pass; the simulator
	// stops after 256 consecutive misses (DESIGN.md §8).
	m.sched = sched.New(sched.FirstFit, 0, policy, sched.Driver{Start: m.startLocked})
	for _, opt := range opts {
		opt(m)
	}
	if m.hbInterval > 0 && m.hbTimeout <= 0 {
		m.hbTimeout = 4 * m.hbInterval
	}
	bye := wire.AppendHeader(nil, byte(MsgShutdown)) // a whole frame: empty payload, length 0
	m.srv = wire.NewServer(protocol{m}, m.hbInterval, m.drainTimeout, bye)
	return m
}

// Listen starts accepting workers on addr (e.g. "127.0.0.1:0") and returns
// the bound address. When heartbeats are configured the liveness sweeper
// starts alongside the accept loop.
func (m *Manager) Listen(addr string) (string, error) {
	bound, err := m.srv.Listen(addr)
	if err != nil {
		return "", fmt.Errorf("wq: manager listen: %w", err)
	}
	return bound, nil
}

// protocol is the manager's side of the worker connections (wire.Handler).
type protocol struct{ *Manager }

// Open registers a worker and runs a dispatch pass for its capacity.
func (m protocol) Open(c *wire.Conn, typ byte, payload []byte) (wire.Session, error) {
	var reg Message
	if err := (msgReader{c.In}).decode(typ, payload, &reg); err != nil {
		return nil, err
	}
	if reg.Type != MsgRegister {
		return nil, wire.Malformed("connection opened with a type %d frame", reg.Type)
	}
	if reg.Capacity.IsZero() {
		reg.Capacity = resources.PaperWorker()
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrManagerClosed
	}
	w := m.addWorkerLocked(c, reg.Capacity)
	m.dispatchLocked()
	m.mu.Unlock()
	return w, nil
}

// Frame keeps a result for Idle to settle with the rest of its socket read,
// taking no lock; a pong only proves liveness.
func (w *managedWorker) Frame(typ byte, payload []byte) error {
	err := (msgReader{w.c.In}).decode(typ, payload, &w.res)
	if err == nil && w.res.Type == MsgResult {
		w.read = append(w.read, w.res)
	}
	return err
}

// Idle settles the results of one socket read together, so all of them are
// observed before the first re-prediction, and stamps liveness: every frame
// since the last stamp, result or pong, arrived in that read. The reader
// reads nothing more until they are settled.
func (w *managedWorker) Idle() error {
	w.lastSeen.Store(time.Now().UnixNano())
	w.m.settleRead(w)
	return nil
}

// Closed counts and traces a malformed frame (transport errors pass
// silently), settles the results read ahead of it before the eviction would
// make them stale, and evicts the worker.
func (m protocol) Closed(_ *wire.Conn, s wire.Session, cause error) {
	w, _ := s.(*managedWorker)
	if ferr := (*wire.FrameError)(nil); errors.As(cause, &ferr) {
		id := -1
		if w != nil {
			id = w.ID()
		}
		m.mu.Lock()
		m.stats.DecodeErrors++
		m.traceLocked(Event{Type: EventDecodeError, TaskID: -1, WorkerID: id, Detail: ferr.Error()})
		m.mu.Unlock()
	}
	if w != nil {
		m.settleRead(w)
		m.evict(w)
	}
}

// addWorkerLocked registers a connected worker under the next worker ID (IDs
// are monotonic, which is the join order the ledger wants). Callers hold m.mu.
func (m *Manager) addWorkerLocked(c *wire.Conn, capacity resources.Vector) *managedWorker {
	w := &managedWorker{
		Worker: m.sched.Add(m.nextWID, capacity),
		m:      m,
		stats:  &WorkerStats{ID: m.nextWID, Connected: true},
		c:      c,
	}
	w.lastSeen.Store(time.Now().UnixNano())
	m.nextWID++
	m.workers[w.ID()] = w
	m.perWorker = append(m.perWorker, w.stats)
	if len(m.workers) > m.stats.PeakWorkers {
		m.stats.PeakWorkers = len(m.workers)
	}
	m.traceLocked(Event{Type: EventWorkerJoin, TaskID: -1, WorkerID: w.ID()})
	return w
}

// Sweep is the manager-side half of the heartbeat protocol, run every
// heartbeat interval: it declares silent workers lost and pings the rest,
// each ping group-committed with whatever its outbox stages next. Closing a
// lost worker's connection funnels it through the normal disconnect path:
// its reader fails and Closed requeues its in-flight tasks.
func (m protocol) Sweep(now time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, w := range m.workers {
		if now.UnixNano()-w.lastSeen.Load() > int64(m.hbTimeout) {
			m.stats.HeartbeatTimeouts++
			m.traceLocked(Event{Type: EventHeartbeatTimeout, TaskID: -1, WorkerID: w.ID()})
			w.c.Close()
			continue
		}
		m.sendLocked(w, &Message{Type: MsgPing})
	}
}

// evict handles a worker disappearing: the attempts it held are recorded as
// eviction-lost and their tasks requeued with their allocations intact, in
// ascending task ID order (sched.Core.Evicted); a task the retry limit
// abandons instead is delivered as failed.
func (m *Manager) evict(w *managedWorker) {
	m.mu.Lock()
	if !w.Alive() {
		m.mu.Unlock()
		return
	}
	delete(m.workers, w.ID())
	w.stats.Connected = false
	m.stats.FlushBatches += w.c.Out.Writes()
	if !m.closed {
		m.stats.WorkersLost++
		m.traceLocked(Event{Type: EventWorkerLost, TaskID: -1, WorkerID: w.ID(),
			Detail: fmt.Sprintf("in_flight=%d", w.Running())})
	}
	// The live engine does not time lost attempts: Started and now stay zero.
	for _, t := range m.sched.Evicted(w.Worker, 0, nil) {
		m.stats.Evictions++
		w.stats.Evictions++
		m.traceLocked(Event{Type: EventEviction, TaskID: t.ID, WorkerID: w.ID()})
		if t.Terminal() {
			m.abandonLocked(m.tasks[t.ID])
			continue
		}
		m.stats.Requeues++
		m.traceLocked(Event{Type: EventRequeue, TaskID: t.ID, WorkerID: -1})
	}
	m.notePeakQueueLocked()
	m.dispatchLocked()
	m.cond.Broadcast()
	m.mu.Unlock()
}

// retireLocked closes the books on a task that just went terminal and returns
// the channel its outcome is delivered on, if any. A Submit-ted task's state is
// dropped, so the task map stays bounded by live work.
func (m *Manager) retireLocked(st *taskState) chan metrics.TaskOutcome {
	st.Outcome.DoneTime = m.sinceStart()
	if st.notify != nil {
		delete(m.tasks, st.ID)
	}
	return st.notify
}

// abandonLocked delivers a task the retry limit gave up on.
func (m *Manager) abandonLocked(st *taskState) {
	m.stats.Failures++
	m.traceLocked(Event{Type: EventTaskFailed, TaskID: st.ID, WorkerID: -1})
	if notify := m.retireLocked(st); notify != nil {
		notify <- st.Outcome // buffered; at most one terminal send per task
	}
}

// settleRead settles the results of w's last socket read under one hold of
// m.mu, committing the task frames they dispatched once all are settled. Only
// w's reader calls it, so nothing else touches w.read meanwhile.
//
// The read's successes reach policy.Observe first (sched.Core.ObserveAhead),
// so the lazy bucketing state sees the k records of a burst in a row and the
// dispatch passes that follow pay one recompute per resource kind, not k (the
// paper's §V-C batching rule). Only the records move forward: each result then
// frees its own capacity right before its own pass, in arrival order, so
// placement sees what it saw before. Nothing else takes m.mu meanwhile, so no
// eviction can land between a success's early Observe and its settle.
func (m *Manager) settleRead(w *managedWorker) {
	if len(w.read) == 0 {
		return
	}
	m.mu.Lock()
	m.stats.ResultBatches++
	m.stats.ResultsStaged += int64(len(w.read))
	for i := range w.read {
		r := &w.read[i]
		if st := m.tasks[r.TaskID]; r.Status == StatusSuccess && st != nil {
			m.sched.ObserveAhead(w.Worker, &st.Task)
		}
	}
	m.settling = true
	for i := range w.read {
		m.settleLocked(w, w.read[i])
	}
	for _, cw := range m.committing {
		cw.c.Out.Commit()
	}
	m.committing, m.settling = m.committing[:0], false
	m.mu.Unlock()
	w.read = w.read[:0]
}

// settleLocked applies one result frame: the scheduler core settles it
// (sched.Core.Settle), which observes a success or escalates an overrun, and
// the manager counts, traces and delivers what the transition did, then runs
// a dispatch pass. Callers hold m.mu.
func (m *Manager) settleLocked(w *managedWorker, res Message) {
	settled := sched.Stale
	st := m.tasks[res.TaskID]
	if st != nil {
		settled = m.sched.Settle(w.Worker, &st.Task, res.Duration, res.Status != StatusSuccess, res.Exceeded.AppendKinds(nil))
	}
	if settled == sched.Stale {
		// Dropped: honouring it would append a phantom attempt and requeue a
		// task that may already be running elsewhere.
		m.stats.StaleResults++
		m.traceLocked(Event{Type: EventStaleResult, TaskID: res.TaskID, WorkerID: w.ID(), Status: res.Status.String()})
		return
	}
	m.traceLocked(Event{Type: EventResult, TaskID: res.TaskID, WorkerID: w.ID(), Status: res.Status.String()})
	w.stats.BusySeconds += res.Duration
	if settled != sched.Done {
		m.stats.Exhaustions++
		w.stats.Exhaustions++
	}
	switch settled {
	case sched.Done:
		m.stats.Successes++
		w.stats.Successes++
		if notify := m.retireLocked(st); notify != nil {
			notify <- st.Outcome // buffered; at most one terminal send per task
		}
	case sched.Requeued:
		m.notePeakQueueLocked()
		m.stats.Requeues++
		m.traceLocked(Event{Type: EventRequeue, TaskID: res.TaskID, WorkerID: -1})
	case sched.Abandoned:
		m.abandonLocked(st)
	}
	m.dispatchLocked()
	m.cond.Broadcast()
}

// dispatchLocked runs one scheduler pass: queued tasks are allocated and
// placed onto workers with free capacity, and startLocked stages a frame for
// each. A closed (draining) manager dispatches nothing. Allocate runs under
// m.mu, so every worker waiting on a dispatch pays for it: a bucketing policy
// recomputes its buckets on the first call after a run of Observes — once per
// socket read of results, because settleRead observes a read's successes
// before the first of its passes (DESIGN.md §9, §16). Callers hold m.mu.
func (m *Manager) dispatchLocked() {
	if !m.closed {
		m.sched.Dispatch()
	}
}

// startLocked records the placement the pass just made and stages the task
// frame on the worker's outbox.
func (m *Manager) startLocked(t *sched.Task, sw *sched.Worker) {
	w := m.workers[sw.ID()]
	m.stats.Dispatches++
	m.stats.FramesSent++
	w.stats.Dispatched++
	m.traceLocked(Event{Type: EventDispatch, TaskID: t.ID, WorkerID: w.ID()})
	m.sendLocked(w, &Message{
		Type:     MsgTask,
		TaskID:   t.ID,
		Category: t.Category,
		Alloc:    t.Alloc,
		Peak:     t.Outcome.Peak,
		Runtime:  t.Outcome.Runtime,
	})
}

// sendLocked stages msg on w's outbox and group-commits it: the writer yields
// before it takes the stage, so every frame the same result burst, submitter
// wave or sweep stages for w shares one write. While a read's results settle
// the commit waits for the read's end. A frame that cannot be staged closes the
// connection, funneling the worker through the normal eviction path. The
// encoding is the only work m.mu covers; the write is the writer's. Callers
// hold m.mu.
func (m *Manager) sendLocked(w *managedWorker, msg *Message) {
	if err := post(w.c.Out, msg); err != nil {
		w.c.Close()
		return
	}
	if !m.settling {
		w.c.Out.Commit()
	} else if !slices.Contains(m.committing, w) {
		m.committing = append(m.committing, w)
	}
}

// registerTaskLocked registers one task under a collision-free ID drawn from
// the single monotonic counter and enqueues it. When fresh is true (Submit)
// the caller's ID is always replaced; otherwise (RunWorkflow) the declared
// ID is kept unless it is non-positive or already taken, in which case the
// task is transparently renumbered. The assigned ID is in the returned
// state's ID and Outcome.TaskID.
func (m *Manager) registerTaskLocked(t workflow.Task, notify chan metrics.TaskOutcome, fresh bool) *taskState {
	id := t.ID
	if fresh || id <= 0 {
		m.nextTID++
		id = m.nextTID
	} else if _, taken := m.tasks[id]; taken {
		m.nextTID++
		id = m.nextTID
	}
	if id > m.nextTID {
		m.nextTID = id
	}
	st := &taskState{
		Task:   sched.NewTask(id, t.Category, t.Consumption, t.Runtime(), m.sinceStart()),
		notify: notify,
	}
	st.Outcome.Attempts = st.attemptsBuf[:0]
	m.tasks[id] = st
	m.sched.Submit(id, &st.Task)
	m.notePeakQueueLocked()
	return st
}

func (m *Manager) notePeakQueueLocked() {
	if n := m.sched.Ready.Len(); n > m.stats.PeakQueue {
		m.stats.PeakQueue = n
	}
}

// sinceStart returns seconds of wall time since the manager was created —
// the live engine's trace clock.
func (m *Manager) sinceStart() float64 { return time.Since(m.start).Seconds() }

func (m *Manager) traceLocked(ev Event) {
	if m.tracer == nil {
		return
	}
	ev.Time = time.Now()
	m.tracer.Trace(ev)
}

// RunWorkflow executes a workflow phase by phase (respecting its barriers)
// and blocks until every task reaches a terminal state (success, or
// permanent failure under WithRetryLimit), ctx is cancelled, or the manager
// is closed (ErrManagerClosed). Declared task IDs that collide with
// already-registered tasks are transparently renumbered; the result's
// outcomes follow the workflow's task order either way. A workflow with a
// category no task frame can carry (over 64 KiB or not UTF-8) is refused whole.
func (m *Manager) RunWorkflow(ctx context.Context, w *workflow.Workflow) (*sim.Result, error) {
	stop := context.AfterFunc(ctx, func() {
		m.mu.Lock()
		m.cond.Broadcast()
		m.mu.Unlock()
	})
	defer stop()

	for _, t := range w.Tasks {
		if !validCategory(t.Category) {
			return nil, fmt.Errorf("wq: task %d: its %d-byte category is over 64 KiB or not UTF-8", t.ID, len(t.Category))
		}
	}
	start := time.Now()
	sts := make([]*taskState, len(w.Tasks)) // by workflow position
	phases := append(append([]int{}, w.Barriers...), len(w.Tasks))
	// done is the first position not yet terminal; terminal is permanent, so
	// a wake costs what finished since the last one, not the whole prefix.
	from, done := 0, 0
	for _, until := range phases {
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			return nil, ErrManagerClosed
		}
		for i, t := range w.Tasks[from:until] {
			sts[from+i] = m.registerTaskLocked(t, nil, false)
		}
		m.dispatchLocked()
		for {
			for done < until && sts[done].Terminal() {
				done++
			}
			if done == until || ctx.Err() != nil || m.closed {
				break
			}
			m.cond.Wait()
		}
		closed := m.closed
		m.mu.Unlock()
		if done < until {
			if ctx.Err() != nil {
				return nil, fmt.Errorf("wq: workflow cancelled: %w", ctx.Err())
			}
			if closed {
				return nil, fmt.Errorf("wq: workflow aborted: %w", ErrManagerClosed)
			}
		}
		from = until
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	res := &sim.Result{
		Makespan:    time.Since(start).Seconds(),
		PeakWorkers: m.stats.PeakWorkers,
		Evictions:   m.stats.WorkersLost,
	}
	for _, st := range sts {
		res.Outcomes = append(res.Outcomes, st.Outcome)
		res.Acc.Add(st.Outcome)
	}
	res.Failed = res.Acc.Failures()
	return res, nil
}

// Submit enqueues a single dynamically generated task and returns a channel
// that delivers its outcome once it reaches a terminal state. The manager
// assigns the task a fresh submission ID from the same monotonic counter
// every registration path shares (preserving the
// significance-equals-submission-order convention); the caller's ID field is
// ignored. Submitting to a closed manager, or a task whose category no task
// frame can carry (over 64 KiB or not UTF-8), delivers an immediate
// metrics.Failed outcome.
func (m *Manager) Submit(t workflow.Task) <-chan metrics.TaskOutcome {
	ch := make(chan metrics.TaskOutcome, 1)
	sendable := validCategory(t.Category)
	m.mu.Lock()
	if m.closed || !sendable {
		m.mu.Unlock()
		ch <- metrics.TaskOutcome{
			Category: t.Category,
			Peak:     t.Consumption,
			Runtime:  t.Runtime(),
			Attempts: []metrics.Attempt{{Status: metrics.Failed}},
		}
		return ch
	}
	m.registerTaskLocked(t, ch, true)
	m.dispatchLocked()
	m.mu.Unlock()
	return ch
}

// Workers returns the number of connected workers.
func (m *Manager) Workers() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.workers)
}

// Stats returns a consistent snapshot of the lifetime counters, including
// per-worker utilization for every worker that ever connected.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.stats
	s.ConnectedWorkers = len(m.workers)
	s.QueueDepth = m.sched.Ready.Len()
	s.InFlight = m.sched.InFlight()
	for _, w := range m.workers {
		s.FlushBatches += w.c.Out.Writes()
	}
	s.Workers = make([]WorkerStats, len(m.perWorker))
	for id, ws := range m.perWorker {
		s.Workers[id] = *ws
	}
	return s
}

// Close gracefully drains the manager: it stops accepting and dispatching,
// waits for in-flight results up to the drain timeout, wakes blocked
// RunWorkflow callers with ErrManagerClosed, and asks every worker to exit.
// Workers hang up after the shutdown frame; one still connected a drain
// timeout later is hung up on. Close is idempotent.
func (m *Manager) Close() { m.srv.Close() }

// Drain stops dispatching and waits up to the drain timeout for in-flight
// results; every worker gets MsgShutdown next.
func (m protocol) Drain() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.traceLocked(Event{Type: EventDrainStart, TaskID: -1, WorkerID: -1})
	expired := false
	timer := time.AfterFunc(m.drainTimeout, func() {
		m.mu.Lock()
		expired = true
		m.cond.Broadcast()
		m.mu.Unlock()
	})
	defer timer.Stop()
	for m.sched.InFlight() > 0 && !expired {
		m.cond.Wait()
	}
	m.traceLocked(Event{Type: EventDrainEnd, TaskID: -1, WorkerID: -1,
		Detail: fmt.Sprintf("in_flight=%d", m.sched.InFlight())})
	m.cond.Broadcast()
}
