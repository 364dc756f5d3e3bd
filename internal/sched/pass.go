package sched

import (
	"dynalloc/internal/allocator"
	"dynalloc/internal/metrics"
	"dynalloc/internal/resources"
)

// Task is the scheduler's record of one task, embedded in the driver's own
// per-task state: the header the dispatch pass reads and writes and the ledger
// the settle transitions (settle.go) append to. The core holds it by address
// from Submit until it is terminal, under the driver's key (window index, task
// ID), which orders eviction victims; the policy sees ID and Category.
type Task struct {
	ID       int
	Category string
	// Alloc is the allocation the task last ran with or, after a retry
	// escalation, will run with next. HasAlloc is false until the first
	// placement: allocation happens at dispatch time (PAPER.md §II-A), so a
	// task that waits in the queue benefits from everything the allocator
	// learns meanwhile, while evictions and retries keep what they hold.
	// Only the pass (before Place) and Settle (after its release) write it,
	// so Release gives back exactly what Place charged.
	Alloc    resources.Vector
	HasAlloc bool
	// Started is when the attempt in progress began, on the driver's clock;
	// Core.Evicted charges the time since then to a lost attempt.
	Started float64
	// Outcome is the attempt ledger: one record per ended attempt, closed by
	// a Success or, when the retry limit abandoned the task, a Failed marker.
	// Peak and Runtime are the task's consumption; DoneTime is the driver's.
	Outcome metrics.TaskOutcome

	terminal bool // succeeded or abandoned: no attempt will follow
	failed   bool // terminal because the retry limit ran out
	observed bool // the success record has reached policy.Observe

	key    int     // the driver's key, set by Submit
	worker *Worker // the worker holding the task, nil when none does
	at     int     // the task's index in worker.held
}

// Key returns the key the task was submitted under.
func (t *Task) Key() int { return t.key }

// NewTask returns a task submitted at time now with an empty ledger.
func NewTask(id int, category string, peak resources.Vector, runtime, now float64) Task {
	return Task{ID: id, Category: category, Outcome: metrics.TaskOutcome{
		TaskID:     id,
		Category:   category,
		Peak:       peak,
		Runtime:    runtime,
		SubmitTime: now,
	}}
}

// Driver is how a pass reaches the engine that owns the tasks.
type Driver struct {
	// Start runs after t has been charged to w: the driver starts the
	// attempt. It must not touch the ready queue.
	Start func(t *Task, w *Worker)
	// Score ranks workers for the Locality placement; see Pool.Pick.
	Score func(workerID, taskID int) float64
}

// Core is the scheduler state one engine drives: the capacity ledger, the
// ready queue, and the dispatch pass and settle transitions over both.
type Core struct {
	Pool
	// Ready holds the tasks awaiting placement, in dispatch priority
	// order, as two blocks: the entries that hold an allocation (retries and
	// eviction victims, pushed at the front by Settle and Evicted), then the
	// first attempts (pushed at the back by Submit). Drivers only read it.
	Ready Queue
	// RetryLimit is the retry limit (Task.setback) of every task this core
	// settles; zero retries without bound.
	RetryLimit int

	policy    allocator.Policy
	place     Placement
	maxMisses int
	driver    Driver
	firsts    passMemo
	held      int         // entries of Ready that hold an allocation: its front block
	queued    firstCounts // the first attempts in Ready, per category
	requeue   []*Task     // Evicted's scratch: the survivors of one eviction
	scanned   int         // queue entries the passes have read, over the core's life
}

// New builds a scheduler core that dispatches for policy. maxMisses bounds the
// backfilling depth of a pass: after that many consecutive placement failures
// the rest of the queue waits for the next pass; zero scans the whole queue
// every time. Whether policy is stable is read here, once, from its name
// (allocator.Name.Stable); a nil policy, for a core that never dispatches or
// settles, is not.
func New(place Placement, maxMisses int, policy allocator.Policy, d Driver) *Core {
	c := &Core{policy: policy, place: place, maxMisses: maxMisses, driver: d}
	c.firsts.stable = policy != nil && allocator.Name(policy.Name()).Stable()
	return c
}

// Submit queues t's first attempt, under the driver's key, behind everything
// waiting; t holds no allocation yet.
func (c *Core) Submit(key int, t *Task) {
	if t.HasAlloc {
		panic("sched: Submit of a task that holds an allocation")
	}
	t.key = key
	c.queued.add(t.Category)
	c.Ready.PushBack(t)
}

// Dispatch runs one pass: it walks the ready queue in order, placing every
// task that fits some worker and skipping those that fit none right now (Work
// Queue-style backfilling avoids head-of-line blocking). Nothing is observed
// during a pass, so a stable policy predicts each category once per pass, and
// once a category's vector fits no worker every later first attempt of it is
// a miss without a policy call or a probe: capacity only shrinks within a pass
// and Pick returns a worker iff one fits. Any other policy draws afresh for
// every first attempt on every pass.
//
// The pass ends as soon as nothing unscanned can place: every held entry has
// been scanned (they lead the queue) and every category with a first attempt
// queued has missed. What it leaves unscanned would all have been such misses,
// so the early end changes no placement, policy call or queue order.
func (c *Core) Dispatch() {
	// The scan compacts the ring in place: unplaced tasks slide down to
	// position `kept` as the read cursor advances, preserving queue order.
	n, held := c.Ready.Len(), c.held
	kept, scanned, misses := 0, 0, 0
	c.firsts.begin()
	for ; scanned < n; scanned++ {
		if c.maxMisses > 0 && misses >= c.maxMisses ||
			scanned >= held && c.queued.overflow == 0 && c.firsts.misses == c.queued.live {
			break
		}
		t := c.Ready.At(scanned)
		alloc, ok := t.Alloc, true
		if !t.HasAlloc {
			alloc, ok = c.firsts.allocate(c.policy, t.Category, t.ID)
		}
		var w *Worker
		if ok {
			w = c.Pick(c.place, alloc, t.ID, c.driver.Score)
		}
		if w == nil {
			if ok && !t.HasAlloc {
				c.firsts.missed(t.Category)
			}
			c.Ready.Set(kept, t)
			kept++
			misses++
			continue
		}
		if t.HasAlloc {
			c.held--
		} else {
			c.queued.remove(t.Category)
		}
		t.Alloc, t.HasAlloc = alloc, true
		c.Place(w, t)
		c.driver.Start(t, w)
		misses = 0
	}
	c.scanned += scanned
	c.Ready.Cut(kept, scanned)
}

// passMemo serves the first-attempt allocations of one dispatch pass. A pass
// places queued tasks in order against capacity that only shrinks, so a
// stable policy needs one call per category per pass, and once a category's
// vector has fit no worker no later first attempt of it can be placed either.
// The memo is a handful of per-category entries searched linearly, emptied by
// begin; categories past its capacity get one policy call per task, as does
// every category of a policy that is not stable.
type passMemo struct {
	stable  bool // policy names a stable algorithm; set once, by New
	entries [memoSize]passEntry
	n       int // entries in use
	misses  int // entries marked missed
}

// memoSize is how many categories a pass memoises and firstCounts tracks.
const memoSize = 8

type passEntry struct {
	category string
	alloc    resources.Vector
	missed   bool
}

// begin starts a new pass.
func (m *passMemo) begin() { m.n, m.misses = 0, 0 }

func (m *passMemo) find(category string) *passEntry {
	for i := range m.entries[:m.n] {
		if m.entries[i].category == category {
			return &m.entries[i]
		}
	}
	return nil
}

// allocate returns the first-attempt allocation for a task. ok is false when
// the policy is stable and the category's vector already failed to place in
// this pass: the task stays queued without a policy call or a placement probe.
func (m *passMemo) allocate(policy allocator.Policy, category string, taskID int) (alloc resources.Vector, ok bool) {
	if !m.stable {
		return policy.Allocate(category, taskID), true
	}
	if e := m.find(category); e != nil {
		return e.alloc, !e.missed
	}
	alloc = policy.Allocate(category, taskID)
	if m.n < len(m.entries) {
		m.entries[m.n] = passEntry{category: category, alloc: alloc}
		m.n++
	}
	return alloc, true
}

// missed records that the vector allocate returned for category fit no
// worker; it does nothing for a category the memo does not hold.
func (m *passMemo) missed(category string) {
	if e := m.find(category); e != nil && !e.missed {
		e.missed = true
		m.misses++
	}
}

// firstCounts counts the queued first attempts per category in a table the
// size of the memo. A category that finds the table full is counted in
// overflow, which turns the pass's early end off until it drains. With no
// overflow, a missed memo entry is a live slot (its miss is still queued), so
// the pass has seen every queued category miss exactly when the memo's misses
// equal live.
type firstCounts struct {
	cats     [memoSize]string
	n        [memoSize]int
	live     int // slots with n > 0; one per category at most
	overflow int
}

func (f *firstCounts) add(category string) {
	free := -1
	for i := range f.cats {
		if f.n[i] > 0 && f.cats[i] == category {
			f.n[i]++
			return
		}
		if f.n[i] == 0 && free < 0 {
			free = i
		}
	}
	if free < 0 {
		f.overflow++
		return
	}
	f.cats[free], f.n[free] = category, 1
	f.live++
}

func (f *firstCounts) remove(category string) {
	for i := range f.cats {
		if f.n[i] > 0 && f.cats[i] == category {
			if f.n[i]--; f.n[i] == 0 {
				f.live--
			}
			return
		}
	}
	f.overflow--
}
