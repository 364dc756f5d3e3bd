package sim

import (
	"context"
	"errors"
	"fmt"
	"math"

	"dynalloc/internal/allocator"
	"dynalloc/internal/devent"
	"dynalloc/internal/metrics"
	"dynalloc/internal/opportunistic"
	"dynalloc/internal/resources"
	"dynalloc/internal/sched"
	"dynalloc/internal/vine"
	"dynalloc/internal/workflow"
)

// ErrCanceled is returned (wrapped) when a simulation is aborted by its
// context before completing. Match it with errors.Is; the context's own
// error (context.Canceled or context.DeadlineExceeded) is wrapped too.
var ErrCanceled = errors.New("sim: run canceled")

// ctxCheckInterval is how many simulation events may fire between context
// checks. ctx.Err() is cheap but not free (a mutex acquisition in the
// stdlib context types); checking every 64th event keeps cancellation
// latency well under a millisecond of wall time at negligible cost.
const ctxCheckInterval = 64

// DefaultMaxAttempts is the default retry limit of a single task (see
// Config.MaxAttempts). With doubling escalation a task reaches worker capacity
// from the 1-unit floor in well under 64 attempts, so hitting the bound
// indicates a logic error rather than an unlucky run.
const DefaultMaxAttempts = 64

// Config describes one simulation run.
type Config struct {
	// Workflow is the workload as a materialized task slice. Exactly one of
	// Workflow and Source must be set; a Workflow runs through its Stream()
	// cursor, so both forms drive the same engine.
	Workflow *workflow.Workflow
	// Source generates the workload lazily (see workflow.Source). Tasks are
	// pulled only as barriers and the submit window release them, so with a
	// bounded window the engine's peak memory scales with the in-flight
	// window, not the task count — the streaming path for million-task
	// runs. Combine with OnOutcome or DiscardOutcomes to keep the result
	// side equally bounded.
	Source workflow.Source
	Policy allocator.Policy
	// Pool provides the worker arrival schedule. Nil means the paper pool
	// (20 workers ramping to 50).
	Pool opportunistic.Model
	// PoolSeed seeds the pool schedule.
	PoolSeed uint64
	// WorkerShape is each worker's capacity. Zero means the paper worker.
	WorkerShape resources.Vector
	// Model is the task consumption profile (zero value = RampEarly).
	Model ConsumptionModel
	// Place is the worker placement policy (zero value = FirstFit).
	Place Placement
	// Data, when non-nil, enables the TaskVine-style data layer: task
	// inputs are staged to workers before execution (holding the
	// allocation meanwhile), workers cache files, evictions lose caches,
	// and the Locality placement prefers workers holding a task's inputs.
	Data *vine.Layer
	// MaxAttempts is the retry limit: a task evicted or exhausted more than
	// MaxAttempts times fails the run. Zero means DefaultMaxAttempts.
	MaxAttempts int
	// OnOutcome, when non-nil, streams each finalized task outcome (in task
	// index order) instead of retaining it: Result.Outcomes stays nil. The
	// pointed-to outcome is owned by the simulator and recycled after the
	// callback returns — copy anything kept beyond the call.
	OnOutcome func(*metrics.TaskOutcome)
	// DiscardOutcomes drops per-task outcomes after folding them into the
	// run's accumulator (and Categories/OnOutcome, if set), leaving
	// Result.Outcomes nil. Set it on large streaming runs where only the
	// aggregate metrics matter.
	DiscardOutcomes bool
	// Categories, when non-nil, additionally folds every outcome into
	// bounded per-category streaming statistics (waste accumulators plus
	// memory/runtime reservoirs).
	Categories *metrics.ByCategory
}

func (c Config) withDefaults() Config {
	if c.Pool == nil {
		c.Pool = opportunistic.PaperPool()
	}
	if c.WorkerShape.IsZero() {
		c.WorkerShape = resources.PaperWorker()
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = DefaultMaxAttempts
	}
	return c
}

// Result aggregates a simulation run.
type Result struct {
	// Outcomes holds the per-task outcomes in task order. It is nil when
	// the run streamed them away (Config.OnOutcome or DiscardOutcomes).
	Outcomes []metrics.TaskOutcome
	Acc      metrics.Accumulator
	Makespan float64
	// PeakWorkers is the largest number of simultaneously alive workers.
	PeakWorkers int
	// PeakWindow is the largest number of task records held at once: the
	// realized in-flight window, which bounds the engine's per-task memory
	// (on a windowed streaming run it is independent of the task count).
	PeakWindow int
	// Evictions counts worker evictions. Every eviction is counted,
	// whether it interrupted running tasks or hit an idle worker.
	Evictions int
	// Failed counts tasks abandoned permanently by the retry limit (live
	// engine only; the simulators fail the whole run instead).
	Failed int
	// Arrivals is the realized worker arrival schedule the run executed
	// against (DES runs only; nil under the sequential driver). Recording it
	// alongside the outcomes is what makes a run log replayable: a scripted
	// pool re-presents exactly this schedule to a counterfactual run.
	Arrivals []opportunistic.Arrival
}

// Summary returns the metric summary of the run.
func (r *Result) Summary() metrics.Summary { return r.Acc.Summarize() }

// simTask is one task's state in the in-flight window. The embedded task is
// the scheduler core's record (dispatch header and attempt ledger), keyed by
// task index; exceeded and endEv describe the attempt in progress, if any.
type simTask struct {
	sched.Task
	exceeded []resources.Kind
	endEv    devent.Handle
}

// Simulator event kinds. Payload layout per kind: evArrival carries the
// arrival index in A; evEviction the worker id in A; evTaskEnd the worker id
// in A, the task index in B, and the attempt duration in F; evDispatch
// carries nothing.
const (
	evDispatch devent.Kind = iota
	evArrival
	evEviction
	evTaskEnd
)

// maxConsecutiveMisses bounds the backfilling depth of a dispatch pass: after
// this many consecutive placement failures the pool is effectively full for
// this batch's allocation sizes and the rest of the queue is left for the next
// event (real managers bound their dispatch scans the same way).
const maxConsecutiveMisses = 256

// unreleased marks simulator.released when no barrier gates task
// generation: every task the source produces may start.
const unreleased = math.MaxInt

type simulator struct {
	cfg      Config
	src      workflow.Source
	engine   devent.Engine
	store    taskStore               // in-flight window of per-task state, keyed by task index
	arrivals []opportunistic.Arrival // pool schedule, indexed by worker id
	// sched owns the ready queue (task indices awaiting placement), the
	// worker capacity ledger and the dispatch pass.
	sched *sched.Core
	// byID resolves the worker id carried in event payloads; evicted slots
	// are nilled so the worker can be collected.
	byID    []*sched.Worker
	victims []*sched.Task // eviction scratch, reused across onEviction calls

	window            int  // submit window (0 = everything released at once)
	generated         int  // tasks pulled from the source so far
	drained           bool // the source is exhausted
	retain            bool // keep emitted outcomes in Result.Outcomes
	released          int  // tasks [0, released) may start (barrier gating); unreleased when no barrier remains
	completed         int
	completedInPrefix int
	outcomes          []metrics.TaskOutcome
	acc               metrics.Accumulator
	futureArrivals    int
	peakWorkers       int
	evictions         int
	makespan          float64
	err               error
}

// Run executes the discrete-event simulation and returns the per-task
// outcomes and aggregated metrics.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run under a context: the event loop checks ctx at event
// boundaries (every ctxCheckInterval events) and aborts with an error
// wrapping ErrCanceled once the context is done.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%w before start: %w", ErrCanceled, err)
	}
	cfg = cfg.withDefaults()
	src := cfg.Source
	if cfg.Workflow != nil {
		if src != nil {
			return nil, fmt.Errorf("sim: set exactly one of Workflow and Source")
		}
		src = cfg.Workflow.Stream()
	}
	if src == nil || cfg.Policy == nil {
		return nil, fmt.Errorf("sim: Workflow (or Source) and Policy are required")
	}
	if _, err := ParsePlacement(cfg.Place.String()); err != nil {
		return nil, err
	}
	s := &simulator{cfg: cfg, src: src}
	s.window = src.SubmitWindow()
	s.retain = cfg.OnOutcome == nil && !cfg.DiscardOutcomes
	s.released = unreleased
	if b := src.NextBarrier(0); b >= 0 {
		s.released = b
	}

	arrivals := cfg.Pool.Schedule(cfg.PoolSeed)
	if len(arrivals) == 0 {
		return nil, fmt.Errorf("sim: pool model %s provided no workers", cfg.Pool.Name())
	}
	s.arrivals = arrivals
	s.byID = make([]*sched.Worker, len(arrivals))
	driver := sched.Driver{Start: s.start}
	if cfg.Data != nil {
		driver.Score = cfg.Data.CachedMB
	}
	s.sched = sched.New(cfg.Place, maxConsecutiveMisses, cfg.Policy, driver)
	s.sched.RetryLimit = cfg.MaxAttempts
	s.futureArrivals = len(arrivals)
	s.engine.SetHandler(s.handleEvent)
	// Bulk-load the whole arrival schedule: one O(n) heapify instead of n
	// heap pushes, and no per-arrival closure.
	pre := make([]devent.Scheduled, len(arrivals))
	for i, a := range arrivals {
		pre[i] = devent.Scheduled{At: a.At, Kind: evArrival, P: devent.Payload{A: i}}
	}
	s.engine.Preload(pre)

	s.engine.Schedule(0, evDispatch, devent.Payload{})
	for steps := 0; ; steps++ {
		if steps%ctxCheckInterval == 0 && ctx.Err() != nil {
			return nil, fmt.Errorf("%w at virtual time %.1fs: %w", ErrCanceled, s.engine.Now(), ctx.Err())
		}
		if !s.engine.Step() {
			break
		}
	}

	if s.err != nil {
		return nil, s.err
	}
	if !s.drained || s.completed != s.generated {
		return nil, fmt.Errorf("sim: deadlock with %d/%d generated tasks complete (pool drained or infeasible allocation)",
			s.completed, s.generated)
	}
	return &Result{
		Outcomes:    s.outcomes,
		Acc:         s.acc,
		Makespan:    s.makespan,
		PeakWorkers: s.peakWorkers,
		PeakWindow:  s.store.peak,
		Evictions:   s.evictions,
		Arrivals:    s.arrivals,
	}, nil
}

func (s *simulator) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// handleEvent is the single devent owner callback: every typed event is
// decoded here and routed to its handler, replacing the per-event closures
// the engine used to capture.
func (s *simulator) handleEvent(kind devent.Kind, p devent.Payload) {
	switch kind {
	case evTaskEnd:
		s.onTaskEnd(p.A, p.B, p.F)
	case evDispatch:
		s.dispatch()
	case evArrival:
		s.onArrival(p.A)
	case evEviction:
		s.onEviction(p.A)
	default:
		s.fail(fmt.Errorf("sim: unknown event kind %d", kind))
	}
}

func (s *simulator) onArrival(id int) {
	if s.err != nil {
		return
	}
	// Ids arrive in ascending order: pool schedules are time-sorted and ties
	// fire in preload order.
	s.byID[id] = s.sched.Add(id, s.cfg.WorkerShape)
	s.futureArrivals--
	if alive := s.sched.Alive(); alive > s.peakWorkers {
		s.peakWorkers = alive
	}
	if lt := s.arrivals[id].Lifetime; lt > 0 {
		s.engine.ScheduleAfter(lt, evEviction, devent.Payload{A: id})
	}
	s.dispatch()
}

func (s *simulator) onEviction(id int) {
	w := s.byID[id]
	if s.err != nil || w == nil {
		return
	}
	s.byID[id] = nil
	s.evictions++
	if s.cfg.Data != nil {
		s.cfg.Data.DropWorker(id)
	}
	s.victims = s.sched.Evicted(w, s.engine.Now(), s.victims[:0])
	for _, t := range s.victims {
		st := s.store.get(t.Key())
		s.engine.Cancel(st.endEv)
		if t.Terminal() {
			s.failAbandoned(st)
		}
	}
	s.dispatch()
}

// failAbandoned fails the run over a task the retry limit abandoned.
func (s *simulator) failAbandoned(st *simTask) {
	s.fail(fmt.Errorf("sim: task %d exceeded %d attempts under %s (alloc %v, peak %v)",
		st.ID, s.cfg.MaxAttempts, s.cfg.Policy.Name(), st.Alloc, st.Outcome.Peak))
}

// generate pulls tasks from the source into the store and the ready queue,
// up to the barrier/submit-window limit. Pulling lazily here is what the
// old engine achieved by queueing every released task and window-gating
// the scan: ungated fresh tasks are always an ascending-index suffix of
// the ready queue, so deferring their creation changes no dispatch
// decision — it only keeps the in-flight window small.
func (s *simulator) generate() {
	limit := s.released
	if s.window > 0 {
		if l := s.completed + s.window; l < limit {
			limit = l
		}
	}
	for !s.drained && s.generated < limit {
		t, ok := s.src.Next()
		if !ok {
			s.drained = true
			return
		}
		e := s.store.pushBack()
		var attempts []metrics.Attempt
		if !s.retain {
			// The slot's previous occupant was emitted and will never be
			// read again; recycle its attempts capacity.
			attempts = e.Outcome.Attempts[:0]
		}
		*e = simTask{Task: sched.NewTask(t.ID, t.Category, t.Consumption, t.Runtime(), s.engine.Now())}
		e.Outcome.Attempts = attempts
		s.sched.Submit(s.generated, &e.Task)
		s.generated++
	}
}

// emit flushes the completed prefix of the task window, in task-index
// order: fold into the accumulators, hand to the streaming callback, and
// (in retained mode) append to the outcome slice. Index-ordered emission
// keeps the accumulator's floating-point sums bit-identical to the old
// end-of-run fold.
func (s *simulator) emit() {
	for s.store.len() > 0 && s.store.front().Terminal() {
		st := s.store.front()
		s.acc.Add(st.Outcome)
		if s.cfg.Categories != nil {
			s.cfg.Categories.Add(&st.Outcome)
		}
		if s.cfg.OnOutcome != nil {
			s.cfg.OnOutcome(&st.Outcome)
		}
		if s.retain {
			s.outcomes = append(s.outcomes, st.Outcome)
		}
		s.store.popFront()
	}
}

// dispatch releases what the barrier and the submit window allow and runs one
// scheduler pass over the ready queue.
func (s *simulator) dispatch() {
	if s.err != nil {
		return
	}
	s.generate()
	s.sched.Dispatch()
	if s.sched.Alive() == 0 && s.futureArrivals == 0 && (s.sched.Ready.Len() > 0 || !s.drained) {
		s.fail(fmt.Errorf("sim: %d tasks stranded with no workers left", s.sched.Ready.Len()))
	}
}

// start begins the attempt the pass just placed on w and schedules its end.
func (s *simulator) start(t *sched.Task, w *sched.Worker) {
	idx := t.Key()
	st := s.store.get(idx)
	duration, exceeded := EvaluateAttempt(s.cfg.Model, t.Outcome.Peak, t.Outcome.Runtime, t.Alloc)
	if s.cfg.Data != nil {
		// Staging a task's missing inputs holds the allocation before the
		// payload starts; the transfer time extends the attempt.
		duration += s.cfg.Data.Stage(w.ID(), t.ID)
	}
	t.Started, st.exceeded = s.engine.Now(), exceeded
	st.endEv = s.engine.ScheduleAfter(duration, evTaskEnd, devent.Payload{A: w.ID(), B: idx, F: duration})
}

func (s *simulator) onTaskEnd(workerID, idx int, duration float64) {
	if s.err != nil {
		return
	}
	// The end event is cancelled on eviction, so the worker is always alive
	// (and registered) and still holds the task when it fires.
	st := s.store.get(idx)
	switch s.sched.Settle(s.byID[workerID], &st.Task, duration, len(st.exceeded) > 0, st.exceeded) {
	case sched.Done:
		st.Outcome.DoneTime = s.engine.Now()
		s.completed++
		s.makespan = s.engine.Now()
		s.advanceBarrier(idx)
		s.emit()
	case sched.Abandoned:
		s.failAbandoned(st)
	}
	s.dispatch()
}

// advanceBarrier releases the next phase once every task before the current
// barrier has completed.
func (s *simulator) advanceBarrier(completedIdx int) {
	if completedIdx < s.released {
		s.completedInPrefix++
	}
	for s.released != unreleased && s.completedInPrefix == s.released {
		next := s.src.NextBarrier(s.released)
		if next < 0 {
			next = unreleased
		}
		s.released = next
	}
}
