package sched

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"dynalloc/internal/metrics"
	"dynalloc/internal/resources"
)

// checkInvariants verifies what must hold between any two calls into a core,
// for the tasks a driver has registered with it (key -> task) and the number
// of times the pass has started each:
//
//   - every task is in exactly one place: once in the ready queue, held by
//     exactly one worker, or terminal;
//   - the queue and the workers hold only registered tasks, none terminal;
//   - the back-pointers agree with the rows: a task in w's row at index i has
//     worker w and at i, and a task with no worker is in no row;
//   - the queue is its two blocks, held entries first, and the core's counts
//     of both match it (checkQueueCounts);
//   - each worker's used capacity is the sum of the allocations of the tasks
//     it holds, and the in-flight count is the number of held tasks;
//   - a task's ledger has one record per dispatch that has ended, plus the
//     Failed marker of an abandoned task, and is closed (Success or Failed)
//     iff the task is terminal.
//
// It is written once here for the lifecycle explorer (ROADMAP) to reuse.
func checkInvariants(c *Core, tasks map[int]*Task, dispatches map[int]int) error {
	queued, held := map[int]int{}, map[int]int{}
	for i := 0; i < c.Ready.Len(); i++ {
		t := c.Ready.At(i)
		if tasks[t.key] != t {
			return fmt.Errorf("queue position %d holds key %d, not the task registered under it", i, t.key)
		}
		if t.worker != nil {
			return fmt.Errorf("queued task %d points at worker %d", t.key, t.worker.ID())
		}
		queued[t.key]++
	}
	inFlight := 0
	for _, w := range c.AppendWorkers(nil) {
		var used resources.Vector
		for i, t := range w.held {
			if tasks[t.key] != t {
				return fmt.Errorf("worker %d holds key %d, not the task registered under it", w.ID(), t.key)
			}
			if t.worker != w || t.at != i {
				return fmt.Errorf("worker %d holds task %d at %d; the task points at worker %p, index %d", w.ID(), t.key, i, t.worker, t.at)
			}
			held[t.key]++
			used = used.Add(t.Alloc.With(resources.Time, 0))
		}
		inFlight += len(w.held)
		for k := range used {
			if math.Abs(used[k]-w.used[k]) > 1e-6 {
				return fmt.Errorf("worker %d: used %v, holds allocations summing to %v", w.ID(), w.used, used)
			}
		}
	}
	if inFlight != c.InFlight() {
		return fmt.Errorf("InFlight() = %d, workers hold %d tasks", c.InFlight(), inFlight)
	}
	if err := checkQueueCounts(c); err != nil {
		return err
	}
	for key, t := range tasks {
		if (t.worker != nil) != (held[key] == 1) {
			return fmt.Errorf("task %d points at a worker %v, is in %d rows", key, t.worker != nil, held[key])
		}
		places := queued[key] + held[key]
		if t.terminal {
			places++
		}
		if places != 1 {
			return fmt.Errorf("task %d is in %d places (queued %d, held by %d, terminal %v), want exactly one",
				key, places, queued[key], held[key], t.terminal)
		}
		ended, closed := len(t.Outcome.Attempts), false
		if n := len(t.Outcome.Attempts); n > 0 {
			switch t.Outcome.Attempts[n-1].Status {
			case metrics.Failed:
				ended--
				closed = true
				if !t.failed {
					return fmt.Errorf("task %d: ledger ends in Failed, Failed() = false", key)
				}
			case metrics.Success:
				closed = true
			}
		}
		if closed != t.terminal || (t.failed && !t.terminal) {
			return fmt.Errorf("task %d: terminal %v, failed %v, ledger %s", key, t.terminal, t.failed, ledger(t))
		}
		if ended+held[key] != dispatches[key] {
			return fmt.Errorf("task %d: %d attempts ended and %d running after %d dispatches", key, ended, held[key], dispatches[key])
		}
	}
	return nil
}

// checkQueueCounts verifies the ready queue's two blocks and the counts the
// pass's early end reads: every entry holding an allocation precedes every
// first attempt, held is the number of the former, and the per-category table
// plus its overflow count exactly the latter — each category in at most one
// live slot, and in its slot with its full count when nothing overflowed.
func checkQueueCounts(c *Core) error {
	held, firsts, perCat := 0, 0, map[string]int{}
	for i := 0; i < c.Ready.Len(); i++ {
		t := c.Ready.At(i)
		if t.HasAlloc {
			if firsts > 0 {
				return fmt.Errorf("queue position %d holds an allocation behind %d first attempts", i, firsts)
			}
			held++
			continue
		}
		firsts++
		perCat[t.Category]++
	}
	if c.held != held {
		return fmt.Errorf("held = %d, the queue leads with %d entries holding an allocation", c.held, held)
	}
	q := &c.queued
	live, inSlots, slot := 0, 0, map[string]int{}
	for i, n := range q.n {
		if n == 0 {
			continue
		}
		if _, dup := slot[q.cats[i]]; dup {
			return fmt.Errorf("category %q has two live slots", q.cats[i])
		}
		live, inSlots, slot[q.cats[i]] = live+1, inSlots+n, n
	}
	if live != q.live || inSlots+q.overflow != firsts {
		return fmt.Errorf("first-attempt table: live %d (want %d), %d in slots + %d overflow, queue holds %d",
			q.live, live, inSlots, q.overflow, firsts)
	}
	for cat, n := range slot {
		if n > perCat[cat] {
			return fmt.Errorf("category %q: slot counts %d, %d first attempts queued", cat, n, perCat[cat])
		}
	}
	for cat, n := range perCat {
		if q.overflow == 0 && slot[cat] != n {
			return fmt.Errorf("category %q: %d first attempts queued, slot counts %d, nothing overflowed", cat, n, slot[cat])
		}
	}
	return nil
}

// ledger renders a task's attempt statuses, one letter each: S(uccess),
// X (exhausted), E(victed), F(ailed).
func ledger(t *Task) string {
	var b strings.Builder
	for _, a := range t.Outcome.Attempts {
		b.WriteByte("SXEF"[a.Status])
	}
	return b.String()
}

// lifecyclePolicy allocates 100 MB on one core, doubles the memory on every
// retry, and counts the calls.
type lifecyclePolicy struct{ retries, observes int }

func (p *lifecyclePolicy) Allocate(string, int) resources.Vector {
	return resources.New(1, 100, 100, resources.Unlimited)
}
func (p *lifecyclePolicy) Retry(_ string, _ int, prev resources.Vector, _ []resources.Kind) resources.Vector {
	p.retries++
	return prev.With(resources.Memory, 2*prev.Get(resources.Memory))
}
func (p *lifecyclePolicy) Observe(string, int, resources.Vector, float64) { p.observes++ }
func (p *lifecyclePolicy) Name() string                                   { return "lifecycle" }

// world is a core, the tasks registered with it and a policy, driven one
// transition at a time; every step re-checks the invariants.
type world struct {
	t          *testing.T
	c          *Core
	pol        lifecyclePolicy
	tasks      map[int]*Task
	workers    []*Worker
	dispatches map[int]int
	clock      float64
}

// newWorld builds a core with the given retry limit, workers of the given
// core counts (each task takes one core), and the given task keys queued in
// that order.
func newWorld(t *testing.T, limit int, cores []float64, keys ...int) *world {
	w := &world{t: t, tasks: map[int]*Task{}, dispatches: map[int]int{}}
	w.c = New(FirstFit, 0, &w.pol, Driver{
		Start: func(task *Task, _ *Worker) {
			w.dispatches[task.Key()]++
			task.Started = w.clock
		},
	})
	w.c.RetryLimit = limit
	for id, n := range cores {
		w.workers = append(w.workers, w.c.Add(id, resources.New(n, 1e6, 1e6, resources.Unlimited)))
	}
	for _, key := range keys {
		task := NewTask(key, "c", resources.New(1, 500, 10, 10), 10, 0)
		w.tasks[key] = &task
		w.c.Submit(key, &task)
	}
	w.check("setup")
	return w
}

func (w *world) check(step string) {
	w.t.Helper()
	if err := checkInvariants(w.c, w.tasks, w.dispatches); err != nil {
		w.t.Fatalf("after %s: %v", step, err)
	}
}

func (w *world) dispatch() {
	w.t.Helper()
	w.c.Dispatch()
	w.check("dispatch")
}

// settledNames spells a Settled for test messages.
var settledNames = [...]string{Stale: "stale", Done: "done", Requeued: "requeued", Abandoned: "abandoned"}

// settle reports the end of key's attempt on worker id and checks what the
// transition did: "stale", "done", "requeued" or "abandoned".
func (w *world) settle(id, key int, overrun bool, want string) {
	w.t.Helper()
	if got := settledNames[w.c.Settle(w.workers[id], w.tasks[key], 1, overrun, nil)]; got != want {
		w.t.Fatalf("Settle(worker %d, key %d, overrun %v) = %s, want %s", id, key, overrun, got, want)
	}
	w.check(fmt.Sprintf("settle(%d, %d)", id, key))
}

func (w *world) evict(id int, wantVictims ...int) {
	w.t.Helper()
	if got := keysOf(w.c.Evicted(w.workers[id], w.clock, nil)); !equalInts(got, wantVictims) {
		w.t.Fatalf("Evicted(worker %d) = %v, want %v", id, got, wantVictims)
	}
	w.check(fmt.Sprintf("evict(%d)", id))
}

// TestSettleTransitions drives every way an attempt can end through the core
// and checks, per scenario, what each transition did, the final ledgers, the
// ready queue and the policy calls; checkInvariants runs after every step.
func TestSettleTransitions(t *testing.T) {
	for _, tc := range []struct {
		name     string
		limit    int
		cores    []float64
		keys     []int
		run      func(w *world)
		ledgers  map[int]string
		queue    string
		retries  int
		observes int
	}{
		{
			name:  "a success closes the ledger and owes one Observe",
			cores: []float64{1}, keys: []int{1},
			run: func(w *world) {
				w.dispatch()
				w.settle(0, 1, false, "done")
			},
			ledgers:  map[int]string{1: "S"},
			queue:    "[]",
			observes: 1,
		},
		{
			name:  "an overrun within the limit escalates and jumps the queue",
			cores: []float64{1}, keys: []int{1, 2},
			run: func(w *world) {
				w.dispatch()
				w.settle(0, 1, true, "requeued")
				if got := fmt.Sprint(queueContents(&w.c.Ready)); got != "[1 2]" {
					w.t.Fatalf("queue after the overrun = %s, want [1 2]", got)
				}
				w.dispatch()
				if task := w.tasks[1]; !w.workers[0].Holds(task) || task.Alloc.Get(resources.Memory) != 200 {
					w.t.Fatalf("retry placed with %v MB, want the escalated 200", task.Alloc.Get(resources.Memory))
				}
				w.settle(0, 1, false, "done")
			},
			ledgers:  map[int]string{1: "XS", 2: ""},
			queue:    "[2]",
			retries:  1,
			observes: 1,
		},
		{
			name:  "more setbacks than the limit abandon the task",
			limit: 2, cores: []float64{1}, keys: []int{1},
			run: func(w *world) {
				for i := 0; i < 2; i++ {
					w.dispatch()
					w.settle(0, 1, true, "requeued")
				}
				w.dispatch()
				w.settle(0, 1, true, "abandoned")
			},
			ledgers: map[int]string{1: "XXXF"},
			queue:   "[]",
			retries: 2,
		},
		{
			name:  "a stale result from a former owner releases nothing and appends nothing",
			cores: []float64{1, 1}, keys: []int{1},
			run: func(w *world) {
				w.dispatch()
				w.evict(0, 1)
				w.dispatch()
				if task := w.tasks[1]; !w.workers[1].Holds(task) || w.workers[0].Holds(task) {
					w.t.Fatal("task not re-dispatched to worker 1 alone")
				}
				w.settle(0, 1, true, "stale")
				w.settle(0, 1, false, "stale")
				w.c.ObserveAhead(w.workers[0], w.tasks[1])
				if !w.workers[1].Holds(w.tasks[1]) || ledger(w.tasks[1]) != "E" || w.pol.observes != 0 {
					w.t.Fatalf("stale results changed the task: ledger %s, %d observes", ledger(w.tasks[1]), w.pol.observes)
				}
				w.settle(1, 1, false, "done")
				w.settle(1, 1, false, "stale") // a duplicate from the owner
			},
			ledgers:  map[int]string{1: "ES"},
			queue:    "[]",
			observes: 1,
		},
		{
			name:  "a success observed early and lost to an eviction owes no second Observe",
			cores: []float64{1, 1}, keys: []int{1},
			run: func(w *world) {
				w.dispatch()
				w.c.ObserveAhead(w.workers[0], w.tasks[1])
				w.c.ObserveAhead(w.workers[0], w.tasks[1])
				if w.pol.observes != 1 {
					w.t.Fatalf("%d observes ahead, want 1", w.pol.observes)
				}
				w.evict(0, 1)
				w.dispatch()
				w.settle(1, 1, false, "done")
			},
			ledgers:  map[int]string{1: "ES"},
			queue:    "[]",
			observes: 1,
		},
		{
			// Keys are placed unsorted; 3 and 11 already lost an attempt, so
			// this eviction puts them over the limit.
			name:  "abandoned victims are not requeued and the survivors stay one ascending block",
			limit: 1, cores: []float64{5, 1}, keys: []int{7, 3, 5, 11, 2, 4, 9},
			run: func(w *world) {
				for _, key := range []int{3, 11} {
					w.tasks[key].Outcome.Attempts = []metrics.Attempt{{Status: metrics.Evicted}}
					w.dispatches[key] = 1
				}
				w.dispatch() // 7 3 5 11 2 on worker 0, 4 on worker 1, 9 waits
				w.clock = 30
				w.evict(0, 2, 3, 5, 7, 11)
				for _, key := range []int{3, 11} {
					if !w.tasks[key].Failed() {
						w.t.Fatalf("task %d not abandoned", key)
					}
				}
				if got := w.tasks[5].Outcome.Attempts[0].Duration; got != 30 {
					w.t.Fatalf("lost attempt charged %v s, want the 30 since it started", got)
				}
			},
			ledgers: map[int]string{2: "E", 3: "EEF", 5: "E", 7: "E", 11: "EEF", 4: "", 9: ""},
			queue:   "[2 5 7 9]",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t, tc.limit, tc.cores, tc.keys...)
			tc.run(w)
			for key, want := range tc.ledgers {
				if got := ledger(w.tasks[key]); got != want {
					t.Errorf("task %d ledger %q, want %q", key, got, want)
				}
			}
			if got := fmt.Sprint(queueContents(&w.c.Ready)); got != tc.queue {
				t.Errorf("ready queue %s, want %s", got, tc.queue)
			}
			if w.pol.retries != tc.retries || w.pol.observes != tc.observes {
				t.Errorf("policy.Retry called %d times and Observe %d, want %d and %d",
					w.pol.retries, w.pol.observes, tc.retries, tc.observes)
			}
		})
	}
}

// TestTaskTransitions covers the task-level lifecycle a driver with no pool
// and no queue uses: the limit rule's count and RunAlone.
func TestTaskTransitions(t *testing.T) {
	t.Run("setbacks are exhausted plus evicted attempts; zero is unbounded", func(t *testing.T) {
		var pol lifecyclePolicy
		task := NewTask(1, "c", resources.Vector{}, 0, 0)
		for i := 0; i < 100; i++ {
			if task.settle(&pol, 0, 1, true, nil) != Requeued || !task.setback(1, metrics.Evicted, 0) {
				t.Fatalf("unbounded task abandoned after %s", ledger(&task))
			}
		}
		task = NewTask(2, "c", resources.Vector{}, 0, 0)
		if !task.setback(1, metrics.Evicted, 3) || task.settle(&pol, 3, 1, true, nil) != Requeued || !task.setback(1, metrics.Evicted, 3) {
			t.Fatalf("abandoned within the limit: %s", ledger(&task))
		}
		if task.settle(&pol, 3, 1, true, nil) != Abandoned || !task.Terminal() || !task.Failed() || ledger(&task) != "EXEXF" {
			t.Fatalf("fourth setback under limit 3: terminal %v, failed %v, ledger %s", task.Terminal(), task.Failed(), ledger(&task))
		}
		if pol.retries != 101 || pol.observes != 0 {
			t.Errorf("%d retries and %d observes, want 101 and 0", pol.retries, pol.observes)
		}
	})
	t.Run("RunAlone", func(t *testing.T) {
		for _, tc := range []struct {
			limit, overruns       int // the attempt func exceeds this many times, then succeeds
			wantLedger            string
			wantObserves, wantMem int
		}{
			{limit: 3, overruns: 0, wantLedger: "S", wantObserves: 1, wantMem: 100},
			{limit: 3, overruns: 3, wantLedger: "XXXS", wantObserves: 1, wantMem: 800},
			{limit: 3, overruns: 9, wantLedger: "XXXXF", wantObserves: 0, wantMem: 800},
			{limit: 0, overruns: 9, wantLedger: "XXXXXXXXXS", wantObserves: 1, wantMem: 51200},
		} {
			var pol lifecyclePolicy
			task := NewTask(1, "c", resources.New(1, 500, 10, 10), 10, 0)
			calls := 0
			task.RunAlone(&pol, tc.limit, func(alloc resources.Vector) (float64, []resources.Kind) {
				calls++
				if calls <= tc.overruns {
					return 1, []resources.Kind{resources.Memory}
				}
				return 10, nil
			})
			attempts := len(strings.TrimSuffix(tc.wantLedger, "F"))
			if got := ledger(&task); got != tc.wantLedger || calls != attempts || !task.Terminal() || task.Failed() != strings.HasSuffix(got, "F") {
				t.Errorf("limit %d, %d overruns: ledger %s after %d attempts (terminal %v, failed %v), want %s",
					tc.limit, tc.overruns, got, calls, task.Terminal(), task.Failed(), tc.wantLedger)
			}
			if pol.observes != tc.wantObserves || int(task.Alloc.Get(resources.Memory)) != tc.wantMem {
				t.Errorf("limit %d, %d overruns: %d observes, final %v MB; want %d, %d",
					tc.limit, tc.overruns, pol.observes, task.Alloc.Get(resources.Memory), tc.wantObserves, tc.wantMem)
			}
		}
	})
}
