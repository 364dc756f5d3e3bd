package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"dynalloc/internal/allocator"
	"dynalloc/internal/devent"
	"dynalloc/internal/metrics"
	"dynalloc/internal/opportunistic"
	"dynalloc/internal/resources"
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

// capacitySlack is the relative tolerance applied to worker capacity when
// deciding whether an allocation fits. Admission (simWorker.fits) and the
// over-pack invariant check (simulator.place) share this one constant so
// they can never disagree: an allocation admitted at capacity*(1+slack)
// is, by the same comparison, never reported as over-packing.
const capacitySlack = 1e-9

// DefaultMaxAttempts bounds the retry chain of a single task. With doubling
// escalation a task reaches worker capacity from the 1-unit floor in well
// under 64 attempts, so hitting the bound indicates a logic error rather
// than an unlucky run.
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
	// MaxAttempts bounds per-task attempts (default DefaultMaxAttempts).
	MaxAttempts int
	// IncludeEvictions charges eviction-lost allocations to the AWE metric.
	IncludeEvictions bool
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
	// Failed counts tasks abandoned permanently after exceeding a retry
	// bound (live engine only; the simulator retries without bound).
	Failed int
	// Arrivals is the realized worker arrival schedule the run executed
	// against (DES runs only; nil under the sequential driver). Recording it
	// alongside the outcomes is what makes a run log replayable: a scripted
	// pool re-presents exactly this schedule to a counterfactual run.
	Arrivals []opportunistic.Arrival
}

// Summary returns the metric summary of the run.
func (r *Result) Summary() metrics.Summary { return r.Acc.Summarize() }

type simTask struct {
	task     workflow.Task
	outcome  metrics.TaskOutcome
	alloc    resources.Vector
	hasAlloc bool
	done     bool
}

// Simulator event kinds for the typed devent path. Payload layout per kind:
// evArrival carries the arrival index in A; evEviction the worker id in A;
// evTaskEnd the worker id in A, the task index in B, and the attempt
// duration in F; evDispatch carries nothing.
const (
	evDispatch devent.Kind = iota
	evArrival
	evEviction
	evTaskEnd
)

// runningTask is a value (stored by value in simWorker.running): the typed
// event path addresses attempts by (worker id, task index), so nothing
// needs a stable pointer and placing a task allocates nothing.
type runningTask struct {
	start    float64
	exceeded []resources.Kind
	endEv    devent.Handle
}

type simWorker struct {
	id       int
	capacity resources.Vector
	// limit is capacity scaled by (1 + capacitySlack), precomputed once at
	// arrival so admission is three comparisons instead of re-deriving the
	// slack product per kind on every fits probe.
	limit   resources.Vector
	used    resources.Vector
	running map[int]runningTask
	alive   bool
	// prev/next link the alive list in ascending-id (= arrival) order;
	// eviction unlinks in O(1) instead of splicing a slice.
	prev, next *simWorker
}

// newSimWorker builds an alive worker of the given shape with its admission
// limits precomputed.
func newSimWorker(id int, shape resources.Vector) *simWorker {
	w := &simWorker{
		id:       id,
		capacity: shape,
		running:  make(map[int]runningTask),
		alive:    true,
	}
	for k := range shape {
		w.limit[k] = shape[k] * (1 + capacitySlack)
	}
	return w
}

// fits reports whether alloc fits into the worker's free capacity. The
// comparisons are bit-identical to `used+alloc > capacity*(1+capacitySlack)`
// with the product precomputed, and unrolled over the allocated kinds so
// the hot path performs no slice allocation.
func (w *simWorker) fits(alloc resources.Vector) bool {
	return w.used[resources.Cores]+alloc[resources.Cores] <= w.limit[resources.Cores] &&
		w.used[resources.Memory]+alloc[resources.Memory] <= w.limit[resources.Memory] &&
		w.used[resources.Disk]+alloc[resources.Disk] <= w.limit[resources.Disk]
}

// unreleased marks simulator.released when no barrier gates task
// generation: every task the source produces may start.
const unreleased = math.MaxInt

type simulator struct {
	cfg      Config
	src      workflow.Source
	engine   devent.Engine
	store    taskStore               // in-flight window of per-task state, keyed by task index
	ready    taskQueue               // task indices awaiting placement, in dispatch priority order
	arrivals []opportunistic.Arrival // pool schedule, indexed by worker id
	capIdx   *capIndex               // capacity index over worker slots for O(log W) placement
	// aliveHead/aliveTail chain alive workers in arrival (ascending-id)
	// order; the Locality placement scans the chain and eviction unlinks
	// in O(1).
	aliveHead, aliveTail *simWorker
	alive                int
	// byID resolves the worker id carried in event payloads; evicted slots
	// are nilled so the worker can be collected.
	byID    []*simWorker
	victims []int // eviction scratch, reused across onEviction calls
	// firsts serves first-attempt allocations within one dispatch pass.
	firsts allocator.PassMemo

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
	s := &simulator{cfg: cfg, src: src}
	s.window = src.SubmitWindow()
	s.retain = cfg.OnOutcome == nil && !cfg.DiscardOutcomes
	s.acc.IncludeEvictions = cfg.IncludeEvictions
	s.released = unreleased
	if b := src.NextBarrier(0); b >= 0 {
		s.released = b
	}

	arrivals := cfg.Pool.Schedule(cfg.PoolSeed)
	if len(arrivals) == 0 {
		return nil, fmt.Errorf("sim: pool model %s provided no workers", cfg.Pool.Name())
	}
	s.arrivals = arrivals
	s.byID = make([]*simWorker, len(arrivals))
	s.capIdx = newCapIndex(len(arrivals))
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
	w := newSimWorker(id, s.cfg.WorkerShape)
	s.byID[id] = w
	// Append to the alive-list tail: ids arrive in ascending order (pool
	// schedules are time-sorted, ties fire in preload order), so the chain
	// stays sorted by id without insertion search.
	if s.aliveTail == nil {
		s.aliveHead, s.aliveTail = w, w
	} else {
		s.aliveTail.next, w.prev = w, s.aliveTail
		s.aliveTail = w
	}
	s.alive++
	s.capIdx.update(id, w)
	s.futureArrivals--
	if s.alive > s.peakWorkers {
		s.peakWorkers = s.alive
	}
	if lt := s.arrivals[id].Lifetime; lt > 0 {
		s.engine.ScheduleAfter(lt, evEviction, devent.Payload{A: id})
	}
	s.dispatch()
}

func (s *simulator) onEviction(id int) {
	w := s.byID[id]
	if s.err != nil || w == nil || !w.alive {
		return
	}
	w.alive = false
	s.byID[id] = nil
	// Unlink from the alive chain: the scan set shrinks instead of
	// accumulating tombstones that every placement probe would skip.
	if w.prev != nil {
		w.prev.next = w.next
	} else {
		s.aliveHead = w.next
	}
	if w.next != nil {
		w.next.prev = w.prev
	} else {
		s.aliveTail = w.prev
	}
	w.prev, w.next = nil, nil
	s.alive--
	s.capIdx.update(id, nil)
	s.evictions++
	if s.cfg.Data != nil {
		s.cfg.Data.DropWorker(w.id)
	}
	now := s.engine.Now()
	// Iterate the victims in task order: map iteration order would make
	// the requeue order — and hence the whole run — nondeterministic.
	victims := s.victims[:0]
	for idx := range w.running {
		victims = append(victims, idx)
	}
	sort.Ints(victims)
	for _, idx := range victims {
		rt := w.running[idx]
		s.engine.Cancel(rt.endEv)
		st := s.store.get(idx)
		st.outcome.Attempts = append(st.outcome.Attempts, metrics.Attempt{
			Alloc:    st.alloc,
			Duration: now - rt.start,
			Status:   metrics.Evicted,
		})
	}
	// The tasks keep their allocations: eviction says nothing about the
	// allocation's adequacy. Retries jump the queue as one block, so the
	// queue front stays in ascending task-ID order — the same recovery
	// order the live wq engine uses.
	s.ready.PushFrontAll(victims)
	s.victims = victims
	w.running = nil // the worker is dead; release its attempt map
	w.used = resources.Vector{}
	s.dispatch()
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
			attempts = e.outcome.Attempts[:0]
		}
		*e = simTask{task: t, outcome: metrics.TaskOutcome{
			TaskID:     t.ID,
			Category:   t.Category,
			Peak:       t.Consumption,
			Runtime:    t.Runtime(),
			Attempts:   attempts,
			SubmitTime: s.engine.Now(),
		}}
		s.ready.PushBack(s.generated)
		s.generated++
	}
}

// emit flushes the completed prefix of the task window, in task-index
// order: fold into the accumulators, hand to the streaming callback, and
// (in retained mode) append to the outcome slice. Index-ordered emission
// keeps the accumulator's floating-point sums bit-identical to the old
// end-of-run fold.
func (s *simulator) emit() {
	for s.store.len() > 0 && s.store.front().done {
		st := s.store.front()
		s.acc.Add(st.outcome)
		if s.cfg.Categories != nil {
			s.cfg.Categories.Add(&st.outcome)
		}
		if s.cfg.OnOutcome != nil {
			s.cfg.OnOutcome(&st.outcome)
		}
		if s.retain {
			s.outcomes = append(s.outcomes, st.outcome)
		}
		s.store.popFront()
	}
}

// dispatch greedily places ready tasks onto alive workers, in queue order,
// skipping tasks that fit no worker right now (Work Queue-style in-manager
// backfilling avoids head-of-line blocking).
func (s *simulator) dispatch() {
	if s.err != nil {
		return
	}
	s.generate()
	// Bound the backfilling depth: after this many consecutive placement
	// failures the pool is effectively full for this batch's allocation
	// sizes and the rest of the queue is left for the next event (real
	// managers bound their dispatch scans the same way).
	const maxConsecutiveMisses = 256
	misses := 0
	// The scan compacts the ring in place: unplaced indices slide down to
	// position `kept` as the read cursor advances, preserving queue order
	// without rebuilding a `remaining` slice per dispatch pass.
	n := s.ready.Len()
	kept, scanned := 0, 0
	s.firsts.Begin(s.cfg.Policy)
	for ; scanned < n; scanned++ {
		if misses >= maxConsecutiveMisses {
			break
		}
		idx := s.ready.At(scanned)
		st := s.store.get(idx)
		// Allocation happens at dispatch time (Section II-A), so a task that
		// waited in the queue benefits from everything the allocator learned
		// meanwhile. Nothing is observed during a pass, so a stable category
		// is predicted once per pass, and once its vector fits no worker
		// every later first attempt of it is a miss without a policy call or
		// a probe: capacity only shrinks within a pass and every placement
		// returns a worker iff one fits. A sampled category draws afresh for
		// every first attempt on every pass. Retries keep their escalated
		// allocation (hasAlloc is set on the retry path).
		alloc, ok := st.alloc, true
		if !st.hasAlloc {
			alloc, ok = s.firsts.Allocate(st.task.Category, st.task.ID)
		}
		var w *simWorker
		if ok {
			w = s.pickWorker(alloc, st.task.ID)
		}
		if w != nil {
			st.alloc = alloc
			st.hasAlloc = true
			s.place(w, idx)
			misses = 0
		} else {
			if ok && !st.hasAlloc {
				s.firsts.Missed(st.task.Category)
			}
			s.ready.Set(kept, idx)
			kept++
			misses++
		}
	}
	// Slide any unscanned tail (miss-bound bailout) down behind the kept
	// prefix, keeping the original relative order.
	for ; scanned < n; scanned++ {
		s.ready.Set(kept, s.ready.At(scanned))
		kept++
	}
	s.ready.Truncate(kept)
	if s.alive == 0 && s.futureArrivals == 0 && (s.ready.Len() > 0 || !s.drained) {
		s.fail(fmt.Errorf("sim: %d tasks stranded with no workers left", s.ready.Len()))
	}
}

// pickWorker routes a placement probe to the capacity index (first/worst/
// best fit, O(log W)) or, for Locality, to a scan of the alive chain in
// arrival order.
func (s *simulator) pickWorker(alloc resources.Vector, taskID int) *simWorker {
	switch s.cfg.Place {
	case FirstFit:
		return s.capIdx.firstFit(alloc)
	case WorstFit:
		return s.capIdx.worstFit(alloc)
	case BestFit:
		return s.capIdx.bestFit(alloc)
	case Locality:
		var chosen *simWorker
		var chosenScore float64
		for w := s.aliveHead; w != nil; w = w.next {
			if !w.fits(alloc) {
				continue
			}
			score := 0.0
			if s.cfg.Data != nil {
				score = s.cfg.Data.CachedMB(w.id, taskID)
			}
			if chosen == nil || score > chosenScore {
				chosen, chosenScore = w, score
			}
		}
		return chosen
	default:
		return nil
	}
}

func (s *simulator) place(w *simWorker, idx int) {
	st := s.store.get(idx)
	w.used = w.used.Add(st.alloc.With(resources.Time, 0))
	for _, k := range [...]resources.Kind{resources.Cores, resources.Memory, resources.Disk} {
		if w.used.Get(k) > w.limit.Get(k) {
			s.fail(fmt.Errorf("sim: worker %d over-packed on %s: %v > %v",
				w.id, k, w.used.Get(k), w.capacity.Get(k)))
			return
		}
	}
	s.capIdx.update(w.id, w)
	now := s.engine.Now()
	duration, exceeded := EvaluateAttempt(s.cfg.Model, st.task.Consumption, st.task.Runtime(), st.alloc)
	if s.cfg.Data != nil {
		// Staging a task's missing inputs holds the allocation before the
		// payload starts; the transfer time extends the attempt.
		duration += s.cfg.Data.Stage(w.id, st.task.ID)
	}
	w.running[idx] = runningTask{
		start:    now,
		exceeded: exceeded,
		endEv: s.engine.ScheduleAfter(duration, evTaskEnd,
			devent.Payload{A: w.id, B: idx, F: duration}),
	}
}

func (s *simulator) onTaskEnd(workerID, idx int, duration float64) {
	if s.err != nil {
		return
	}
	// The end event is cancelled on eviction, so the worker is always alive
	// (and registered) when it fires.
	w := s.byID[workerID]
	st := s.store.get(idx)
	exceeded := w.running[idx].exceeded
	delete(w.running, idx)
	w.used = w.used.Sub(st.alloc.With(resources.Time, 0))
	// Guard against float drift accumulating below zero.
	for k := range w.used {
		if w.used[k] < 0 && w.used[k] > -1e-6 {
			w.used[k] = 0
		}
	}
	s.capIdx.update(w.id, w)

	if len(exceeded) == 0 {
		st.outcome.Attempts = append(st.outcome.Attempts, metrics.Attempt{
			Alloc:    st.alloc,
			Duration: duration,
			Status:   metrics.Success,
		})
		st.done = true
		st.outcome.DoneTime = s.engine.Now()
		s.completed++
		s.makespan = s.engine.Now()
		s.cfg.Policy.Observe(st.task.Category, st.task.ID, st.task.Consumption, st.task.Runtime())
		s.advanceBarrier(idx)
		s.emit()
		s.dispatch()
		return
	}

	st.outcome.Attempts = append(st.outcome.Attempts, metrics.Attempt{
		Alloc:    st.alloc,
		Duration: duration,
		Status:   metrics.Exhausted,
	})
	if st.outcome.Retries() >= s.cfg.MaxAttempts {
		s.fail(fmt.Errorf("sim: task %d exceeded %d attempts under %s (alloc %v, peak %v)",
			st.task.ID, s.cfg.MaxAttempts, s.cfg.Policy.Name(), st.alloc, st.task.Consumption))
		return
	}
	st.alloc = s.cfg.Policy.Retry(st.task.Category, st.task.ID, st.alloc, exceeded)
	s.ready.PushFront(idx)
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
