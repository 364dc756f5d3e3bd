package wq

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dynalloc/internal/allocator"
	"dynalloc/internal/jsonwire"
	"dynalloc/internal/metrics"
	"dynalloc/internal/resources"
	"dynalloc/internal/sched"
	"dynalloc/internal/sim"
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
// exhaustion counts against an optional per-task retry budget (see
// WithRetryLimit); and Close drains in-flight work before waking blocked
// RunWorkflow callers with ErrManagerClosed.
type Manager struct {
	policy allocator.Policy
	// start anchors the manager's trace clock: task submit/done times are
	// recorded as wall-clock seconds since it, the live analogue of the
	// simulators' virtual clock.
	start time.Time

	mu      sync.Mutex
	cond    *sync.Cond
	ln      net.Listener
	workers map[int]*managedWorker
	tasks   map[int]*taskState
	// sched owns the ready queue (task IDs awaiting placement), the worker
	// capacity ledger and the dispatch pass; the manager drives it under mu.
	sched   *sched.Core
	nextWID int
	nextTID int // highest task ID ever registered, on any path
	closed  bool

	stats     Stats
	perWorker map[int]*WorkerStats

	// pendingSends stages outbound task frames produced by dispatchLocked
	// (guarded by mu, like flushBusy and sendSpare). Encoding and I/O happen
	// after mu is released: flushPending swaps the staged batch out under mu,
	// then deliver encodes and writes it with only per-worker writer locks
	// held, flushing each touched worker once per batch instead of once per
	// frame. At most one delivery runs at a time (flushBusy), so the two
	// staging slices ping-pong without copying and concurrent stagers never
	// block on I/O — the active flusher yields once before it swaps, then keeps
	// delivering until nothing is staged (flushPending).
	flushBusy    bool
	pendingSends []pendingSend
	sendSpare    []pendingSend
	flushBatches atomic.Int64
	framesSent   atomic.Int64

	// intake stages completed results decoded by worker reader goroutines
	// (guarded by intakeMu, deliberately separate from mu): readers never
	// contend on the manager lock just to hand a result over. A reader stages
	// every result frame of one socket read and then kicks; whichever kick
	// finds the intake idle drains the whole backlog in batches — the batch's
	// successes observed first, then one settle and dispatch pass per result,
	// one flushPending per batch — while later readers stage and move on.
	intakeMu    sync.Mutex
	intake      []stagedResult
	intakeSpare []stagedResult
	intakeBusy  bool

	resultBatches atomic.Int64
	resultsStaged atomic.Int64

	// options
	hbInterval   time.Duration
	hbTimeout    time.Duration
	retryLimit   int
	drainTimeout time.Duration
	tracer       Tracer

	sweepDone chan struct{}
	sweepWG   sync.WaitGroup
}

// managedWorker is a connected worker: its row in the scheduler's capacity
// ledger (guarded by Manager.mu) and its connection.
type managedWorker struct {
	*sched.Worker
	conn net.Conn
	out  *frameWriter
	// lastSeen is the UnixNano of the last socket read that brought a frame
	// from this worker. Atomic so the reader goroutine refreshes it without
	// touching any lock.
	lastSeen atomic.Int64
}

func (w *managedWorker) send(m Message) error {
	return w.out.send(&m, false)
}

// pendingSend is one outbound frame staged by dispatchLocked for delivery
// outside the manager lock.
type pendingSend struct {
	w   *managedWorker
	msg Message
}

// stagedResult is one completed-task frame staged by a worker reader
// goroutine for the intake drainer.
type stagedResult struct {
	w   *managedWorker
	res Message
}

type taskState struct {
	sched.Task                     // the scheduling header the dispatch pass reads and writes
	outcome    metrics.TaskOutcome // Peak and Runtime are the task's consumption
	done       bool
	failed     bool                     // done because the retry budget ran out
	notify     chan metrics.TaskOutcome // non-nil for Submit-ted tasks
	// ephemeral marks a Submit-ted task: its outcome leaves through notify,
	// so its state is deleted from m.tasks at the terminal transition and the
	// live set stays bounded by in-flight work. RunWorkflow tasks stay until
	// their outcomes are collected.
	ephemeral bool
	// attemptsBuf inlines the first attempt record so the common
	// one-attempt-and-done task never heap-allocates its attempts slice.
	attemptsBuf [1]metrics.Attempt

	// observed is set, under Manager.mu, once the task's success has been
	// handed to policy.Observe — by the drainer's early loop or by
	// processResult, whichever sees it first — and never cleared: a success
	// observed early and then lost to an eviction is not observed again when
	// the task re-runs.
	observed bool

	// owner is the ID of the worker currently running the task, or -1 when
	// the task is queued, finished, or was never dispatched. A result frame
	// is honored only when it comes from the owning worker: after an
	// eviction requeues a task, a late result from the evicted worker must
	// not append a phantom attempt or requeue a task that is already
	// running elsewhere (which would double-dispatch it).
	owner int
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

// WithRetryLimit bounds per-task setbacks: a task evicted or exhausted more
// than n times is abandoned with a recorded metrics.Failed attempt instead
// of looping forever on a doomed allocation or a flapping pool. Zero (the
// default) retries without bound, matching the simulator.
func WithRetryLimit(n int) Option {
	return func(m *Manager) { m.retryLimit = n }
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
		policy:       policy,
		start:        time.Now(),
		workers:      make(map[int]*managedWorker),
		tasks:        make(map[int]*taskState),
		perWorker:    make(map[int]*WorkerStats),
		drainTimeout: 5 * time.Second,
		sweepDone:    make(chan struct{}),
	}
	m.cond = sync.NewCond(&m.mu)
	// The live engine scans the whole queue on every pass; the simulator
	// stops after 256 consecutive misses (DESIGN.md §8).
	m.sched = sched.New(sched.FirstFit, 0, sched.Driver{Lookup: m.lookupLocked, Start: m.startLocked})
	for _, opt := range opts {
		opt(m)
	}
	if m.hbInterval > 0 && m.hbTimeout <= 0 {
		m.hbTimeout = 4 * m.hbInterval
	}
	return m
}

// Listen starts accepting workers on addr (e.g. "127.0.0.1:0") and returns
// the bound address. When heartbeats are configured the liveness sweeper
// starts alongside the accept loop.
func (m *Manager) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("wq: manager listen: %w", err)
	}
	m.mu.Lock()
	m.ln = ln
	m.mu.Unlock()
	go m.acceptLoop(ln)
	if m.hbInterval > 0 {
		m.sweepWG.Add(1)
		go m.sweepLoop()
	}
	return ln.Addr().String(), nil
}

func (m *Manager) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		go m.serveWorker(conn)
	}
}

func (m *Manager) serveWorker(conn net.Conn) {
	defer conn.Close()
	mr := newMsgReader(conn)
	var reg Message
	if err := mr.next(&reg); err != nil || reg.Type != MsgRegister {
		m.noteDecodeError(-1, err)
		return
	}
	capacity := reg.Capacity
	if capacity.IsZero() {
		capacity = resources.PaperWorker()
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	w := m.addWorkerLocked(conn, conn, capacity)
	m.dispatchLocked()
	m.mu.Unlock()
	m.flushPending()

	var res Message
	for {
		// Stage every result frame the last socket read brought in and hand
		// the burst over exactly when the reader is about to block, so the
		// drainer can observe all of it before the first re-prediction.
		// Liveness is stamped there too: every frame decoded since the last
		// stamp, result or pong, arrived in that one read.
		if !mr.buffered() {
			w.lastSeen.Store(time.Now().UnixNano())
			m.kickIntake()
		}
		if err := mr.next(&res); err != nil {
			m.noteDecodeError(w.ID(), err)
			break
		}
		if res.Type == MsgResult {
			m.enqueueResult(w, res)
		}
	}
	// Results staged ahead of a malformed frame are settled before the
	// eviction would make them stale.
	m.kickIntake()
	m.evict(w)
}

// noteDecodeError records a malformed frame from a worker connection in the
// stats and the trace before the connection is dropped; transport errors
// (including clean EOFs) pass through silently.
func (m *Manager) noteDecodeError(workerID int, err error) {
	var derr *jsonwire.DecodeError
	if !errors.As(err, &derr) {
		return
	}
	m.mu.Lock()
	m.stats.DecodeErrors++
	m.traceLocked(Event{Type: EventDecodeError, TaskID: -1, WorkerID: workerID, Detail: derr.Error()})
	m.mu.Unlock()
}

// addWorkerLocked registers a connected worker under the next worker ID (IDs
// are monotonic, which is the join order the ledger wants). Callers hold m.mu.
func (m *Manager) addWorkerLocked(conn net.Conn, out io.Writer, capacity resources.Vector) *managedWorker {
	w := &managedWorker{
		Worker: m.sched.Add(m.nextWID, capacity),
		conn:   conn,
		out:    newFrameWriter(out),
	}
	w.lastSeen.Store(time.Now().UnixNano())
	m.nextWID++
	m.workers[w.ID()] = w
	m.perWorker[w.ID()] = &WorkerStats{ID: w.ID(), Connected: true}
	if len(m.workers) > m.stats.PeakWorkers {
		m.stats.PeakWorkers = len(m.workers)
	}
	m.traceLocked(Event{Type: EventWorkerJoin, TaskID: -1, WorkerID: w.ID()})
	return w
}

// sweepLoop is the manager-side half of the heartbeat protocol: each tick it
// declares silent workers lost and pings the rest. It replaces the old
// per-dispatch time.AfterFunc watchdogs, which leaked a timer per dispatch
// and could kill a healthy worker when a result raced the reap.
func (m *Manager) sweepLoop() {
	defer m.sweepWG.Done()
	ticker := time.NewTicker(m.hbInterval)
	defer ticker.Stop()
	for {
		select {
		case <-m.sweepDone:
			return
		case <-ticker.C:
		}
		m.sweep(time.Now())
	}
}

func (m *Manager) sweep(now time.Time) {
	m.mu.Lock()
	var lost, live []*managedWorker
	for _, w := range m.workers {
		if now.UnixNano()-w.lastSeen.Load() > int64(m.hbTimeout) {
			lost = append(lost, w)
			m.stats.HeartbeatTimeouts++
			m.traceLocked(Event{Type: EventHeartbeatTimeout, TaskID: -1, WorkerID: w.ID()})
		} else {
			live = append(live, w)
		}
	}
	m.mu.Unlock()
	for _, w := range lost {
		// Closing the connection funnels the worker through the normal
		// disconnect path: serveWorker's decode fails and evict requeues
		// its in-flight tasks.
		w.conn.Close()
	}
	for _, w := range live {
		go func(w *managedWorker) {
			if err := w.send(Message{Type: MsgPing}); err != nil {
				w.conn.Close()
			}
		}(w)
	}
}

// evict handles a worker disappearing: its in-flight tasks are requeued with
// their allocations intact (an eviction says nothing about allocation
// adequacy) and recorded as eviction-lost attempts. Requeue order is
// ascending task ID so multi-task evictions replay deterministically.
func (m *Manager) evict(w *managedWorker) {
	m.mu.Lock()
	if !w.Alive() {
		m.mu.Unlock()
		return
	}
	delete(m.workers, w.ID())
	ws := m.perWorker[w.ID()]
	if ws != nil {
		ws.Connected = false
	}
	if !m.closed {
		m.stats.WorkersLost++
		m.traceLocked(Event{Type: EventWorkerLost, TaskID: -1, WorkerID: w.ID(),
			Detail: fmt.Sprintf("in_flight=%d", w.Running())})
	}
	victims := m.sched.Evict(w.Worker, nil)
	requeue := victims[:0]
	for _, id := range victims {
		st, ok := m.tasks[id]
		if !ok {
			continue
		}
		st.owner = -1 // any later result from w for this task is stale
		st.outcome.Attempts = append(st.outcome.Attempts, metrics.Attempt{
			Alloc:  st.Alloc,
			Status: metrics.Evicted,
		})
		m.stats.Evictions++
		if ws != nil {
			ws.Evictions++
		}
		m.traceLocked(Event{Type: EventEviction, TaskID: id, WorkerID: w.ID()})
		if m.failIfOverLimitLocked(st) {
			continue
		}
		requeue = append(requeue, id)
		m.stats.Requeues++
		m.traceLocked(Event{Type: EventRequeue, TaskID: id, WorkerID: -1})
	}
	m.sched.Ready.PushFrontAll(requeue)
	m.notePeakQueueLocked()
	m.dispatchLocked()
	m.cond.Broadcast()
	m.mu.Unlock()
	m.flushPending()
}

// failIfOverLimitLocked enforces the retry budget: once a task has more
// setbacks (evicted or exhausted attempts) than the limit allows, it is
// marked done with a terminal metrics.Failed attempt and its submitter (if
// any) is notified. Returns true when the task was abandoned.
func (m *Manager) failIfOverLimitLocked(st *taskState) bool {
	if m.retryLimit <= 0 || st.done {
		return false
	}
	setbacks := 0
	for _, a := range st.outcome.Attempts {
		if a.Status == metrics.Evicted || a.Status == metrics.Exhausted {
			setbacks++
		}
	}
	if setbacks <= m.retryLimit {
		return false
	}
	st.outcome.Attempts = append(st.outcome.Attempts, metrics.Attempt{
		Alloc:  st.Alloc,
		Status: metrics.Failed,
	})
	st.done = true
	st.failed = true
	st.outcome.DoneTime = m.sinceStart()
	m.stats.Failures++
	m.traceLocked(Event{Type: EventTaskFailed, TaskID: st.ID, WorkerID: -1})
	if st.notify != nil {
		st.notify <- st.outcome // buffered; at most one terminal send per task
		st.notify = nil
	}
	if st.ephemeral {
		// The outcome is delivered; drop the state so the task map stays
		// bounded by live work. A late stale result for this ID takes the
		// unknown-task path, exactly as it would for a done-but-retained one.
		delete(m.tasks, st.ID)
	}
	return true
}

// enqueueResult stages a completed-task frame from a worker reader goroutine
// for the intake drainer, under intakeMu and never the manager lock: hot-path
// readers do not contend on m.mu for result ingestion — the old design's
// worst contention point, where every reader serialized against dispatch.
// Nothing is processed until the reader's next kickIntake.
func (m *Manager) enqueueResult(w *managedWorker, res Message) {
	if res.Exceeded != nil {
		// The decoded slice aliases the reader's scratch and dies at the next
		// frame; results outlive it, so copy (exhaustions are the cold path).
		res.Exceeded = append([]string(nil), res.Exceeded...)
	}
	m.intakeMu.Lock()
	m.intake = append(m.intake, stagedResult{w: w, res: res})
	m.intakeMu.Unlock()
}

// kickIntake makes the caller the drainer of the whole backlog unless one is
// already running; the active drainer re-checks the intake before it stands
// down, so nothing staged before a kick is left behind.
func (m *Manager) kickIntake() {
	m.intakeMu.Lock()
	if m.intakeBusy {
		m.intakeMu.Unlock()
		return
	}
	m.intakeBusy = true
	m.intakeMu.Unlock()
	m.drainIntake()
}

// drainIntake processes staged results in batches until the intake is empty,
// delivering the dispatches each batch produced with one coalesced flush.
// Exactly one drainer runs at a time (the caller has set intakeBusy), so the
// two staging slices can ping-pong without copying.
func (m *Manager) drainIntake() {
	for {
		m.intakeMu.Lock()
		if len(m.intake) == 0 {
			m.intakeBusy = false
			m.intakeMu.Unlock()
			return
		}
		batch := m.intake
		m.intake = m.intakeSpare[:0]
		m.intakeSpare = batch
		m.intakeMu.Unlock()
		m.resultBatches.Add(1)
		m.resultsStaged.Add(int64(len(batch)))
		m.observeBatch(batch)
		for i := range batch {
			m.processResult(batch[i].w, batch[i].res)
		}
		m.flushPending()
	}
}

// observeBatch hands every success of the batch that processResult will
// honour to policy.Observe before the first result is settled, so the lazy
// bucketing state sees the k records of a burst in a row and the dispatch
// passes that follow pay one recompute per resource kind, not k (the paper's
// §V-C batching rule). Only the records move forward: each result still
// frees its own capacity right before its own pass, so placement sees what
// it saw before. The admission test is processResult's own, under m.mu; the
// Observe calls run outside the lock, as they always have.
func (m *Manager) observeBatch(batch []stagedResult) {
	var buf [32]*taskState // one reader window holds ~20 result frames
	early := buf[:0]
	m.mu.Lock()
	for i := range batch {
		r := &batch[i]
		if r.res.Status != StatusSuccess {
			continue
		}
		st, ok := m.tasks[r.res.TaskID]
		if !ok || st.done || st.owner != r.w.ID() || st.observed {
			continue
		}
		st.observed = true
		early = append(early, st)
	}
	m.mu.Unlock()
	for _, st := range early {
		m.policy.Observe(st.Category, st.ID, st.outcome.Peak, st.outcome.Runtime)
	}
}

// handleResult ingests one result synchronously: process it, then deliver any
// dispatches it unlocked. The live path goes through the intake instead, so
// the results of one socket read batch; this entry point keeps single-result
// semantics for direct callers (tests pinning the stale-result and parity
// behavior).
func (m *Manager) handleResult(w *managedWorker, res Message) {
	m.processResult(w, res)
	m.flushPending()
}

// processResult applies one result frame to the engine state: release the
// worker's capacity, honor the frame only if the worker still owns the task,
// record the attempt, escalate or complete (observing a success unless the
// drainer's early loop already has), and stage follow-on dispatches
// (delivered later by the caller's flushPending).
func (m *Manager) processResult(w *managedWorker, res Message) {
	m.mu.Lock()
	m.sched.Release(w.Worker, res.TaskID)
	st, ok := m.tasks[res.TaskID]
	if !ok || st.done {
		// Unknown or already-terminal task (e.g. a duplicate result after
		// an eviction raced a slow worker): the capacity release above is
		// all that matters.
		m.dispatchLocked()
		m.cond.Broadcast()
		m.mu.Unlock()
		return
	}
	if st.owner != w.ID() {
		// Stale result: the task is live but this worker no longer owns it —
		// it was evicted and the task requeued (and possibly re-dispatched
		// elsewhere). Honoring the frame would append a phantom attempt,
		// escalate through policy.Retry, and requeue a task that may already
		// be running on another worker — a double dispatch. Drop it.
		m.stats.StaleResults++
		m.traceLocked(Event{Type: EventStaleResult, TaskID: res.TaskID, WorkerID: w.ID(), Status: res.Status})
		m.dispatchLocked()
		m.cond.Broadcast()
		m.mu.Unlock()
		return
	}
	st.owner = -1
	ws := m.perWorker[w.ID()]
	m.traceLocked(Event{Type: EventResult, TaskID: res.TaskID, WorkerID: w.ID(), Status: res.Status})

	switch res.Status {
	case StatusSuccess:
		st.outcome.Attempts = append(st.outcome.Attempts, metrics.Attempt{
			Alloc:    st.Alloc,
			Duration: res.Duration,
			Status:   metrics.Success,
		})
		st.done = true
		st.outcome.DoneTime = m.sinceStart()
		m.stats.Successes++
		if ws != nil {
			ws.Successes++
			ws.BusySeconds += res.Duration
		}
		notify := st.notify
		st.notify = nil
		outcome := st.outcome
		observed := st.observed
		st.observed = true
		if st.ephemeral {
			// Terminal and delivered below: drop the state so the task map
			// stays bounded by live work instead of growing per submission.
			delete(m.tasks, res.TaskID)
		}
		m.mu.Unlock()
		// Observe outside the lock: the policy has its own lock and the
		// bucketing recomputation can be slow.
		if !observed {
			m.policy.Observe(st.Category, st.ID, st.outcome.Peak, st.outcome.Runtime)
		}
		if notify != nil {
			notify <- outcome
		}
		m.mu.Lock()
	case StatusExhausted:
		st.outcome.Attempts = append(st.outcome.Attempts, metrics.Attempt{
			Alloc:    st.Alloc,
			Duration: res.Duration,
			Status:   metrics.Exhausted,
		})
		m.stats.Exhaustions++
		if ws != nil {
			ws.Exhaustions++
			ws.BusySeconds += res.Duration
		}
		if !m.failIfOverLimitLocked(st) {
			var exceeded []resources.Kind
			for _, name := range res.Exceeded {
				if k, err := resources.ParseKind(name); err == nil {
					exceeded = append(exceeded, k)
				}
			}
			prev := st.Alloc
			m.mu.Unlock()
			next := m.policy.Retry(st.Category, st.ID, prev, exceeded)
			m.mu.Lock()
			if !st.done {
				st.Alloc = next
				m.sched.Ready.PushFront(st.ID)
				m.notePeakQueueLocked()
				m.stats.Requeues++
				m.traceLocked(Event{Type: EventRequeue, TaskID: st.ID, WorkerID: -1})
			}
		}
	}
	m.dispatchLocked()
	m.cond.Broadcast()
	m.mu.Unlock()
}

// dispatchLocked runs one scheduler pass: queued tasks are allocated and
// placed onto workers with free capacity, and startLocked stages a frame for
// each. A closed (draining) manager dispatches nothing. Allocate runs under
// m.mu, so every worker waiting on a dispatch pays for it: a bucketing policy
// recomputes its buckets on the first call after a run of Observes — once per
// result batch, because the drainer observes a batch's successes before the
// first of its passes (DESIGN.md §9, §16). Callers hold m.mu.
func (m *Manager) dispatchLocked() {
	if !m.closed {
		m.sched.Dispatch(m.policy)
	}
}

// lookupLocked is the pass's view of a queued task ID; a task that finished
// or was dropped while queued leaves the queue.
func (m *Manager) lookupLocked(id int) *sched.Task {
	st := m.tasks[id]
	if st == nil || st.done {
		return nil
	}
	return &st.Task
}

// startLocked records the placement the pass just made and stages the task
// frame; encoding and I/O happen in flushPending after the caller releases
// m.mu, so the lock guards only state transitions. Every path that can stage
// (Submit, results, evictions, registration, RunWorkflow) flushes on the way
// out.
func (m *Manager) startLocked(id int, t *sched.Task, sw *sched.Worker) {
	st, w := m.tasks[id], m.workers[sw.ID()]
	st.owner = w.ID()
	m.stats.Dispatches++
	if ws := m.perWorker[w.ID()]; ws != nil {
		ws.Dispatched++
	}
	m.traceLocked(Event{Type: EventDispatch, TaskID: id, WorkerID: w.ID()})
	m.pendingSends = append(m.pendingSends, pendingSend{w: w, msg: Message{
		Type:     MsgTask,
		TaskID:   id,
		Category: t.Category,
		Alloc:    t.Alloc,
		Peak:     st.outcome.Peak,
		Runtime:  st.outcome.Runtime,
	}})
}

// flushPending delivers every frame dispatchLocked has staged since the last
// flush. Callers must NOT hold m.mu. A frame is written when nothing already
// runnable has anything to add to it: the caller that finds no delivery in
// flight becomes the flusher and yields once before it takes the stage, so
// the submitters and drainers one result burst woke stage behind it and
// return at the flushBusy check — one write per touched worker, not one each.
// With nothing else runnable the yield returns at once. The flusher delivers
// until the stage is empty, so frames staged while it wrote still go out.
func (m *Manager) flushPending() {
	m.mu.Lock()
	if len(m.pendingSends) == 0 || m.flushBusy {
		m.mu.Unlock()
		return
	}
	m.flushBusy = true
	m.mu.Unlock()
	runtime.Gosched()
	m.mu.Lock()
	for len(m.pendingSends) > 0 {
		batch := m.pendingSends
		m.pendingSends = m.sendSpare[:0]
		m.sendSpare = batch
		m.mu.Unlock()
		m.deliver(batch)
		m.mu.Lock()
	}
	m.flushBusy = false
	m.mu.Unlock()
}

// deliver encodes and writes one staged batch: frames are queued per worker
// under only that worker's writer lock, then each touched worker is flushed
// once — so a batch of k frames to one worker costs one syscall-equivalent
// write, not k. A write failure closes the connection, funneling the worker
// through the normal eviction path.
func (m *Manager) deliver(batch []pendingSend) {
	var touchedArr [8]*managedWorker
	touched := touchedArr[:0]
	for i := range batch {
		s := &batch[i]
		if s.w.out == nil {
			continue
		}
		if err := s.w.out.queue(&s.msg); err != nil {
			if s.w.conn != nil {
				s.w.conn.Close()
			}
			continue
		}
		seen := false
		for _, t := range touched {
			if t == s.w {
				seen = true
				break
			}
		}
		if !seen {
			touched = append(touched, s.w)
		}
	}
	m.framesSent.Add(int64(len(batch)))
	m.flushBatches.Add(int64(len(touched)))
	for _, w := range touched {
		if err := w.out.flush(); err != nil && w.conn != nil {
			w.conn.Close()
		}
	}
}

// registerTaskLocked registers one task under a collision-free ID drawn from
// the single monotonic counter and enqueues it. When fresh is true (Submit)
// the caller's ID is always replaced; otherwise (RunWorkflow) the declared
// ID is kept unless it is non-positive or already taken, in which case the
// task is transparently renumbered. The assigned ID is in the returned
// state's ID and outcome.TaskID.
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
	st := &taskState{Task: sched.Task{ID: id, Category: t.Category}, owner: -1, outcome: metrics.TaskOutcome{
		TaskID:     id,
		Category:   t.Category,
		Peak:       t.Consumption,
		Runtime:    t.Runtime(),
		SubmitTime: m.sinceStart(),
	}, notify: notify, ephemeral: notify != nil}
	st.outcome.Attempts = st.attemptsBuf[:0]
	m.tasks[id] = st
	m.sched.Ready.PushBack(id)
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
// outcomes follow the workflow's task order either way.
func (m *Manager) RunWorkflow(ctx context.Context, w *workflow.Workflow) (*sim.Result, error) {
	stop := context.AfterFunc(ctx, func() {
		m.mu.Lock()
		m.cond.Broadcast()
		m.mu.Unlock()
	})
	defer stop()

	start := time.Now()
	ids := make([]int, len(w.Tasks)) // workflow position -> engine task ID
	phases := append(append([]int{}, w.Barriers...), len(w.Tasks))
	from := 0
	for _, until := range phases {
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			return nil, ErrManagerClosed
		}
		for i, t := range w.Tasks[from:until] {
			st := m.registerTaskLocked(t, nil, false)
			ids[from+i] = st.ID
		}
		m.dispatchLocked()
		m.mu.Unlock()
		m.flushPending()
		m.mu.Lock()
		for !m.tasksDoneLocked(ids[:until]) && ctx.Err() == nil && !m.closed {
			m.cond.Wait()
		}
		done := m.tasksDoneLocked(ids[:until])
		closed := m.closed
		m.mu.Unlock()
		if !done {
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
	for _, id := range ids {
		st := m.tasks[id]
		res.Outcomes = append(res.Outcomes, st.outcome)
		res.Acc.Add(st.outcome)
		if st.failed {
			res.Failed++
		}
	}
	return res, nil
}

func (m *Manager) tasksDoneLocked(ids []int) bool {
	for _, id := range ids {
		st, ok := m.tasks[id]
		if !ok || !st.done {
			return false
		}
	}
	return true
}

// Submit enqueues a single dynamically generated task and returns a channel
// that delivers its outcome once it reaches a terminal state. The manager
// assigns the task a fresh submission ID from the same monotonic counter
// every registration path shares (preserving the
// significance-equals-submission-order convention); the caller's ID field is
// ignored. Submitting to a closed manager delivers an immediate
// metrics.Failed outcome.
func (m *Manager) Submit(t workflow.Task) <-chan metrics.TaskOutcome {
	ch := make(chan metrics.TaskOutcome, 1)
	m.mu.Lock()
	if m.closed {
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
	m.flushPending()
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
	s.FlushBatches = m.flushBatches.Load()
	s.FramesSent = m.framesSent.Load()
	s.ResultBatches = m.resultBatches.Load()
	s.ResultsStaged = m.resultsStaged.Load()
	ids := make([]int, 0, len(m.perWorker))
	for id := range m.perWorker {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	s.Workers = make([]WorkerStats, 0, len(ids))
	for _, id := range ids {
		s.Workers = append(s.Workers, *m.perWorker[id])
	}
	return s
}

// Close gracefully drains the manager: it stops dispatching, waits for
// in-flight results up to the drain timeout, asks every worker to exit, and
// finally broadcasts so blocked RunWorkflow callers return ErrManagerClosed.
// Workers close their own connections after processing the shutdown frame,
// so an in-flight result is never cut off mid-write. Close is idempotent.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	ln := m.ln
	m.traceLocked(Event{Type: EventDrainStart, TaskID: -1, WorkerID: -1})
	m.mu.Unlock()

	if ln != nil {
		ln.Close()
	}
	close(m.sweepDone)
	m.sweepWG.Wait()

	expired := false
	timer := time.AfterFunc(m.drainTimeout, func() {
		m.mu.Lock()
		expired = true
		m.cond.Broadcast()
		m.mu.Unlock()
	})
	m.mu.Lock()
	for m.sched.InFlight() > 0 && !expired {
		m.cond.Wait()
	}
	m.traceLocked(Event{Type: EventDrainEnd, TaskID: -1, WorkerID: -1,
		Detail: fmt.Sprintf("in_flight=%d", m.sched.InFlight())})
	workers := make([]*managedWorker, 0, len(m.workers))
	for w := m.sched.First(); w != nil; w = w.Next() {
		workers = append(workers, m.workers[w.ID()])
	}
	m.mu.Unlock()
	timer.Stop()

	for _, w := range workers {
		_ = w.send(Message{Type: MsgShutdown})
	}

	m.mu.Lock()
	m.cond.Broadcast()
	m.mu.Unlock()
}
