package wq

import (
	"time"

	"dynalloc/internal/runlog"
)

// EventType names one kind of manager lifecycle event.
type EventType string

// Lifecycle event types emitted by the manager.
const (
	// EventWorkerJoin: a worker registered (WorkerID set).
	EventWorkerJoin EventType = "worker-join"
	// EventWorkerLost: a worker's connection ended while the manager was
	// still running (eviction, crash, or heartbeat reap — the per-task
	// EventEviction lines follow). Workers released by Close do not emit it.
	// Together with EventWorkerJoin this is the realized churn schedule a
	// live run executed against, which is how runlog.ScriptedPool
	// reconstructs a replayable pool from a wq trace.
	EventWorkerLost EventType = "worker-lost"
	// EventDispatch: a task was placed on a worker.
	EventDispatch EventType = "dispatch"
	// EventResult: a result frame was accepted (Status carries the wire
	// status, "success" or "exhausted").
	EventResult EventType = "result"
	// EventEviction: a task in flight on a lost worker was recorded as
	// eviction-lost.
	EventEviction EventType = "eviction"
	// EventRequeue: a task went back to the queue (after an eviction or an
	// exhausted attempt).
	EventRequeue EventType = "requeue"
	// EventHeartbeatTimeout: the sweeper declared a worker lost after it
	// stayed silent past the heartbeat timeout.
	EventHeartbeatTimeout EventType = "heartbeat-timeout"
	// EventStaleResult: a result frame for a live task arrived from a worker
	// that no longer owns it (the task was evicted and requeued, possibly
	// re-dispatched elsewhere) and was dropped (Status carries the dropped
	// frame's wire status).
	EventStaleResult EventType = "stale-result"
	// EventTaskFailed: a task exceeded its retry budget and was abandoned
	// permanently.
	EventTaskFailed EventType = "task-failed"
	// EventDecodeError: a worker connection sent a malformed frame (Detail
	// carries the decode error) and was dropped. WorkerID is -1 when the
	// garbage arrived before a successful registration.
	EventDecodeError EventType = "decode-error"
	// EventDrainStart / EventDrainEnd bracket Close()'s graceful drain.
	EventDrainStart EventType = "drain-start"
	EventDrainEnd   EventType = "drain-end"
)

// Event is one timestamped manager lifecycle event. TaskID and WorkerID are
// -1 when the event is not tied to a task or worker.
type Event struct {
	Time     time.Time
	Type     EventType
	TaskID   int
	WorkerID int
	Status   string // result status for EventResult, "" otherwise
	Detail   string
}

// Tracer receives manager lifecycle events. Implementations must be fast and
// must not call back into the Manager: events are delivered synchronously
// under the manager's lock so that the stream is totally ordered.
type Tracer interface {
	Trace(Event)
}

// Flush policy for RunlogTracer: the buffered log is pushed to disk after
// this many event lines or once this much wall time has passed since the
// last flush, whichever comes first. Without periodic flushing a run killed
// before Finish loses its whole buffered timeline; with it an abandoned log
// still parses with at most the tail missing.
const (
	runlogFlushEvery    = 64
	runlogFlushInterval = 2 * time.Second
)

// RunlogTracer appends manager events to a run log as "event" lines, so a
// live run's log replays through dynalloc analyze exactly like a simulator log
// while also carrying the engine timeline. It flushes the log periodically
// (see runlogFlushEvery / runlogFlushInterval) so a crashed run's trace
// survives up to its last few events.
type RunlogTracer struct {
	w *runlog.Writer
	// sinceFlush and lastFlush implement the flush policy. Trace is called
	// synchronously under the manager's lock (see the Tracer contract), so
	// they need no lock of their own.
	sinceFlush int
	lastFlush  time.Time
}

// NewRunlogTracer wraps an incremental run-log writer.
func NewRunlogTracer(w *runlog.Writer) *RunlogTracer {
	return &RunlogTracer{w: w, lastFlush: time.Now()}
}

// Trace implements Tracer. Write errors are dropped: tracing must never take
// the engine down.
func (t *RunlogTracer) Trace(ev Event) {
	_ = t.w.Event(runlog.EventRecord{
		TimeNS:   ev.Time.UnixNano(),
		Event:    string(ev.Type),
		TaskID:   ev.TaskID,
		WorkerID: ev.WorkerID,
		Status:   ev.Status,
		Detail:   ev.Detail,
	})
	t.sinceFlush++
	if t.sinceFlush >= runlogFlushEvery || time.Since(t.lastFlush) >= runlogFlushInterval {
		_ = t.w.Flush()
		t.sinceFlush = 0
		t.lastFlush = time.Now()
	}
}

// FuncTracer adapts a function to the Tracer interface.
type FuncTracer func(Event)

// Trace implements Tracer.
func (f FuncTracer) Trace(ev Event) { f(ev) }

// WorkerStats is the per-worker slice of a Stats snapshot. Counters keep
// accumulating across a worker's lifetime and are retained after it
// disconnects, so a run's final snapshot covers every worker that ever
// joined.
type WorkerStats struct {
	ID        int
	Connected bool
	// Dispatched counts tasks placed on this worker.
	Dispatched int
	// Successes / Exhaustions count result frames accepted from it.
	Successes   int
	Exhaustions int
	// Evictions counts tasks lost in flight when the worker disappeared.
	Evictions int
	// BusySeconds totals the virtual duration of every attempt the worker
	// reported, a utilization proxy independent of the wall-clock scale.
	BusySeconds float64
}

// Stats is a consistent snapshot of the manager's lifetime counters.
// Dispatches equals the number of attempt records across all outcomes when
// every dispatched task reported back or was evicted, which is how a live
// run's counters reconcile with its sim.Result.
type Stats struct {
	Dispatches        int
	Successes         int
	Exhaustions       int
	Evictions         int // eviction-lost attempts
	Failures          int // tasks abandoned at the retry limit
	Requeues          int
	StaleResults      int // dropped results from workers not holding the task
	HeartbeatTimeouts int
	WorkersLost       int // worker connections lost before Close
	PeakQueue         int // deepest the ready queue ever got
	PeakWorkers       int
	ConnectedWorkers  int
	QueueDepth        int
	InFlight          int
	// DecodeErrors counts malformed frames received from worker connections
	// (each drops its connection), the live engine's analogue of the
	// allocator service's Server.DecodeErrors.
	DecodeErrors int
	// FramesSent counts the task frames staged on workers' outboxes;
	// FlushBatches counts the writes to worker connections, summed over their
	// outboxes up to each worker's eviction (a ping rides in one or costs its
	// own). FramesSent/FlushBatches is the realized dispatch coalescing factor.
	FramesSent   int64
	FlushBatches int64
	// ResultsStaged counts the result frames taken in from workers;
	// ResultBatches counts the socket reads that carried them, each read's
	// results observed as a whole before its first dispatch pass.
	// ResultsStaged/ResultBatches is the realized result batching: the
	// successes a bucketing policy sees between two recomputes.
	ResultsStaged int64
	ResultBatches int64
	Workers       []WorkerStats // sorted by worker ID
}
