package sched

import (
	"fmt"
	"strings"
	"testing"

	"dynalloc/internal/allocator"
	"dynalloc/internal/resources"
)

// fullScanDispatch is the dispatch pass without its early end: it walks the
// ready queue to the end or the miss bound and slides the unscanned tail down
// entry by entry. FuzzDispatchMatchesFullScan holds Core.Dispatch to it.
func fullScanDispatch(c *Core) {
	n := c.Ready.Len()
	kept, scanned, misses := 0, 0, 0
	c.firsts.begin()
	for ; scanned < n; scanned++ {
		if c.maxMisses > 0 && misses >= c.maxMisses {
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
		t.Alloc, t.HasAlloc = alloc, true
		c.Place(w, t)
		c.driver.Start(t, w)
		misses = 0
	}
	for ; scanned < n; scanned++ {
		c.Ready.Set(kept, c.Ready.At(scanned))
		kept++
	}
	c.Ready.Cut(kept, n)
}

// fuzzPolicy is stable or sampling by its name. Under a stable algorithm's
// name it serves each of a, b and c a vector that moves with every Observe of
// the category; under a sampling one it draws every vector from a
// deterministic stream. Every call is logged, and the Observes and Retries
// are counted per task ID.
type fuzzPolicy struct {
	name     allocator.Name
	gen      map[string]int
	draws    int
	log      []string
	observes map[int]int
	retries  map[int]int
}

func (p *fuzzPolicy) Allocate(cat string, id int) resources.Vector {
	p.log = append(p.log, "allocate:"+cat)
	if !p.name.Stable() {
		p.draws++
		return resources.New(float64(1+(7*p.draws+id)%12), 100, 100, resources.Unlimited)
	}
	base := map[string]int{"a": 1, "b": 5, "c": 9}[cat]
	return resources.New(float64(base+3*(p.gen[cat]%3)), 100, 100, resources.Unlimited)
}

func (p *fuzzPolicy) Retry(cat string, id int, prev resources.Vector, _ []resources.Kind) resources.Vector {
	p.log = append(p.log, "retry:"+cat)
	p.retries[id]++
	return prev.With(resources.Cores, 2*prev.Get(resources.Cores))
}

func (p *fuzzPolicy) Observe(cat string, id int, _ resources.Vector, _ float64) {
	p.log = append(p.log, "observe:"+cat)
	p.observes[id]++
	p.gen[cat]++
}

func (p *fuzzPolicy) Name() string { return string(p.name) }

// fuzzWorld is one core and the driver around it, fed one op at a time.
type fuzzWorld struct {
	c          *Core
	pol        *fuzzPolicy
	tasks      map[int]*Task
	dispatches map[int]int
	owner      map[int]*Worker // the worker of each key's latest dispatch
	running    []int           // keys on workers, in start order
	started    [][2]int
	nextKey    int
	nextWorker int
	err        error // the first settle that did not do what its op says
}

func newFuzzWorld(maxMisses int, sampled bool) *fuzzWorld {
	w := &fuzzWorld{
		pol: &fuzzPolicy{name: allocator.MaxSeen, gen: map[string]int{},
			observes: map[int]int{}, retries: map[int]int{}},
		tasks:      map[int]*Task{},
		dispatches: map[int]int{},
		owner:      map[int]*Worker{},
	}
	if sampled {
		w.pol.name = allocator.Greedy
	}
	w.c = New(FirstFit, maxMisses, w.pol, Driver{
		Start: func(t *Task, worker *Worker) {
			key := t.Key()
			w.dispatches[key]++
			w.owner[key] = worker
			w.running = append(w.running, key)
			w.started = append(w.started, [2]int{key, worker.ID()})
		},
	})
	w.c.RetryLimit = 2
	return w
}

func without(keys []int, key int) []int {
	for i, k := range keys {
		if k == key {
			return append(keys[:i], keys[i+1:]...)
		}
	}
	return keys
}

// step applies op, with arg choosing among the candidates, and reports
// whether it was a dispatch pass (run by pass).
func (w *fuzzWorld) step(op, arg byte, pass func(*Core)) bool {
	switch op % 6 {
	case 0: // submit a first attempt of a, b or c
		w.nextKey++
		t := NewTask(w.nextKey, string(rune('a'+arg%3)), resources.Vector{}, 1, 0)
		w.tasks[w.nextKey] = &t
		w.c.Submit(w.nextKey, &t)
	case 1: // a worker joins: 4 or 16 cores
		w.c.Add(w.nextWorker, resources.New(float64(4+12*(arg%2)), 1e6, 1e6, resources.Unlimited))
		w.nextWorker++
	case 2: // the arg-th alive worker is evicted
		alive := w.c.AppendWorkers(nil)
		if len(alive) == 0 {
			return false
		}
		for _, t := range w.c.Evicted(alive[int(arg)%len(alive)], 0, nil) {
			w.running = without(w.running, t.Key())
		}
	case 3: // a running attempt ends: success, or an overrun
		if len(w.running) == 0 {
			return false
		}
		key := w.running[int(arg>>1)%len(w.running)]
		w.running = without(w.running, key)
		if got := w.c.Settle(w.owner[key], w.tasks[key], 1, arg&1 == 1, nil); got == Stale && w.err == nil {
			w.err = fmt.Errorf("the result of running task %d was stale", key)
		}
	case 4: // a stale result: a worker that no longer holds a task reports it
		var stale []int
		for key := 1; key <= w.nextKey; key++ {
			if v := w.owner[key]; v != nil && !v.Holds(w.tasks[key]) {
				stale = append(stale, key)
			}
		}
		if len(stale) == 0 {
			return false
		}
		key := stale[int(arg>>1)%len(stale)]
		t, calls := w.tasks[key], len(w.pol.log)
		ended := len(t.Outcome.Attempts)
		if got := w.c.Settle(w.owner[key], t, 1, arg&1 == 1, nil); (got != Stale || len(t.Outcome.Attempts) != ended || len(w.pol.log) != calls) && w.err == nil {
			w.err = fmt.Errorf("a stale result for task %d settled as %d", key, got)
		}
	case 5:
		w.started = w.started[:0]
		pass(w.c)
		return true
	}
	return false
}

// checkCalls verifies the policy calls each task's ledger owes: one Observe
// per success, and one Retry per overrun the task survived — every one but an
// overrun that abandoned it.
func (w *fuzzWorld) checkCalls() error {
	for key, t := range w.tasks {
		l := ledger(t)
		observes := strings.Count(l, "S")
		retries := strings.Count(l, "X")
		if strings.HasSuffix(l, "XF") {
			retries--
		}
		if w.pol.observes[key] != observes || w.pol.retries[key] != retries {
			return fmt.Errorf("task %d: ledger %s, observed %d times and retried %d, want %d and %d",
				key, l, w.pol.observes[key], w.pol.retries[key], observes, retries)
		}
	}
	return nil
}

// FuzzDispatchMatchesFullScan drives two cores through the same byte-coded
// stream of submits, joins, evictions, settles, stale results and passes — one
// dispatching with Core.Dispatch, one with fullScanDispatch — each with and
// without a miss bound. The input chooses the policy by its length: an input
// of even length runs under a stable algorithm's name, one of odd length under
// a sampling algorithm's, and its last byte is read for nothing else. After
// every pass the started (key, worker) pairs, the ready queue in order and the
// policy-call log must be identical; after every op the early-ending core must
// satisfy checkInvariants, every settle must have done what its op says, and
// every task's ledger must match the Observes and Retries made for it.
func FuzzDispatchMatchesFullScan(f *testing.F) {
	for _, seed := range []string{
		"\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x05\x00\x03\x00\x05\x00",
		"\x00\x00\x00\x01\x00\x02\x01\x01\x05\x00\x03\x01\x04\x00\x05\x00\x02\x00\x05\x00",
		"\x00\x00\x00\x01\x00\x00\x00\x01\x00\x02\x00\x03\x00\x04\x00\x05\x00\x06\x00\x07\x01\x00\x05\x00\x00\x00\x05\x00",
		"\x01\x00\x00\x01\x00\x00\x00\x00\x05\x00\x03\x03\x03\x02\x04\x00\x04\x00\x00\x01\x05\x00\x02\x00\x05\x00\x01\x01\x05\x00",
	} {
		f.Add([]byte(seed))
		f.Add([]byte(seed + "\x00"))
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		sampled := len(ops)%2 == 1
		if len(ops) > 1024 {
			ops = ops[:1024]
		}
		for _, maxMisses := range []int{0, 3} {
			got, want := newFuzzWorld(maxMisses, sampled), newFuzzWorld(maxMisses, sampled)
			for i := 0; i+1 < len(ops); i += 2 {
				passed := got.step(ops[i], ops[i+1], (*Core).Dispatch)
				want.step(ops[i], ops[i+1], fullScanDispatch)
				err := checkInvariants(got.c, got.tasks, got.dispatches)
				if err == nil {
					err = got.err
				}
				if err == nil {
					err = got.checkCalls()
				}
				if err != nil {
					t.Fatalf("sampled %v, maxMisses %d, op %d: %v", sampled, maxMisses, i/2, err)
				}
				if !passed {
					continue
				}
				for _, cmp := range [][2]string{
					{fmt.Sprint(got.started), fmt.Sprint(want.started)},
					{fmt.Sprint(queueContents(&got.c.Ready)), fmt.Sprint(queueContents(&want.c.Ready))},
					{fmt.Sprint(got.pol.log), fmt.Sprint(want.pol.log)},
				} {
					if cmp[0] != cmp[1] {
						t.Fatalf("sampled %v, maxMisses %d, pass at op %d: early end %s, full scan %s",
							sampled, maxMisses, i/2, cmp[0], cmp[1])
					}
				}
			}
		}
	})
}
