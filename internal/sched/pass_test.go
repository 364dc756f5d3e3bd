package sched

import (
	"fmt"
	"testing"

	"dynalloc/internal/allocator"
	"dynalloc/internal/resources"
)

// scriptedPolicy serves the vectors the test sets per category under the
// algorithm name the test gives it, and logs which category each call asked
// for. A category with a seq hands out those vectors in turn before falling
// back to alloc.
type scriptedPolicy struct {
	allocator.Policy // nil: only Allocate and Name are called
	name             allocator.Name
	alloc            map[string]resources.Vector
	seq              map[string][]resources.Vector
	log              []string
}

func (p *scriptedPolicy) Allocate(cat string, id int) resources.Vector {
	p.log = append(p.log, "allocate:"+cat)
	if s := p.seq[cat]; len(s) > 0 {
		p.seq[cat] = s[1:]
		return s[0]
	}
	return p.alloc[cat]
}

func (p *scriptedPolicy) Name() string { return string(p.name) }

// plainPolicy forwards the four methods of the policy it embeds, its name
// included.
type plainPolicy struct{ allocator.Policy }

// renamedPolicy reports a name of its own, which names no algorithm.
type renamedPolicy struct{ allocator.Policy }

func (renamedPolicy) Name() string { return "renamed" }

func TestPassMemo(t *testing.T) {
	small, big := resources.New(1, 100, 100, 0), resources.New(8, 8000, 800, 0)
	p := &scriptedPolicy{name: allocator.MaxSeen, alloc: map[string]resources.Vector{"s": small, "b": big}}
	var m *passMemo
	var mp allocator.Policy // the policy m was made for
	ask := func(cat string, wantAlloc resources.Vector, wantOK bool) {
		t.Helper()
		got, ok := m.allocate(mp, cat, 0)
		if ok != wantOK || (ok && got != wantAlloc) {
			t.Fatalf("allocate(%s) = %v, %v; want %v, %v", cat, got, ok, wantAlloc, wantOK)
		}
	}
	wantLog := func(want ...string) {
		t.Helper()
		if fmt.Sprint(p.log) != fmt.Sprint(want) {
			t.Fatalf("policy calls %v, want %v", p.log, want)
		}
		p.log = p.log[:0]
	}
	memo := func(pol allocator.Policy) *passMemo {
		m := &New(FirstFit, 0, pol, Driver{}).firsts
		m.begin()
		mp = pol
		return m
	}

	// Stable categories interleaved: one policy call each, however many
	// tasks ask; a miss on one does not touch the other.
	m = memo(p)
	ask("s", small, true)
	ask("b", big, true)
	ask("s", small, true)
	m.missed("b")
	ask("b", big, false)
	ask("s", small, true)
	ask("b", big, false)
	wantLog("allocate:s", "allocate:b")

	// Nothing survives begin.
	m.begin()
	ask("b", big, true)
	wantLog("allocate:b")

	// A category past the memo's capacity is asked every time, as under a
	// policy that is not stable.
	m.begin()
	for i := range m.entries {
		c := fmt.Sprint("c", i)
		p.alloc[c] = small
		ask(c, small, true)
	}
	p.log = p.log[:0]
	ask("b", big, true)
	m.missed("b")
	ask("b", big, true)
	ask("c0", small, true)
	wantLog("allocate:b", "allocate:b")

	// Stability is read from the name: a wrapper that forwards it keeps the
	// memo; a name of its own, a sampling algorithm's name or no policy at all
	// is not stable, and then every call goes to the policy.
	for _, tc := range []struct {
		name   string
		policy allocator.Policy
		stable bool
	}{
		{"forwarded", plainPolicy{p}, true},
		{"renamed", renamedPolicy{p}, false},
		{"sampled", &scriptedPolicy{name: allocator.Greedy}, false},
		{"nil", nil, false},
	} {
		if got := memo(tc.policy).stable; got != tc.stable {
			t.Errorf("%s: stable %v, want %v", tc.name, got, tc.stable)
		}
	}
	m = memo(renamedPolicy{p})
	ask("s", small, true)
	m.missed("s")
	ask("s", small, true)
	wantLog("allocate:s", "allocate:s")
}

// TestDispatchPass drives whole passes over a scripted queue and pool and
// checks, per scenario, which category the policy was asked for in what
// order, which (key, worker) pairs were started in what order, and what
// stayed queued. Every started task must be held by the worker it started on.
func TestDispatchPass(t *testing.T) {
	wide := resources.New(8, 1000, 1000, resources.Unlimited)
	narrow := resources.New(3, 1000, 1000, resources.Unlimited)
	tiny := resources.New(0.5, 10, 10, resources.Unlimited)
	paper := resources.PaperWorker() // 16 cores
	type queued struct {
		key  int
		cat  string
		held *resources.Vector // an allocation kept from an earlier attempt
	}
	first := func(cats ...string) (q []queued) {
		for i, c := range cats {
			q = append(q, queued{key: i + 1, cat: c})
		}
		return q
	}
	var memoFull []queued
	for i := 0; i < 8; i++ {
		memoFull = append(memoFull, queued{key: 100 + i, cat: fmt.Sprint("c", i)})
	}
	memoFull = append(memoFull, queued{key: 1, cat: "huge"}, queued{key: 2, cat: "huge"}, queued{key: 3, cat: "c0"}, queued{key: 4, cat: "huge"})

	for _, tc := range []struct {
		name      string
		maxMisses int
		sampled   bool   // the policy carries a sampling algorithm's name
		wrap      string // "plain" forwards the policy's name, "renamed" reports its own
		passes    int    // default 1
		workers   []resources.Vector
		queue     []queued
		seq       map[string][]resources.Vector
		wantLog   string
		wantStart string // (key, worker) pairs
		wantQueue string
		// wantScanned, when set, is how many queue entries the pass read.
		wantScanned int
	}{
		{
			// The narrow ones backfill past a wide one that does not fit;
			// once wide has missed, its later first attempts cost nothing.
			name:      "one policy call per stable category per pass",
			workers:   []resources.Vector{paper},
			queue:     first("wide", "narrow", "wide", "narrow", "wide", "narrow", "wide", "narrow"),
			wantLog:   "[allocate:wide allocate:narrow]",
			wantStart: "[[1 0] [2 0] [4 0]]",
			wantQueue: "[3 5 6 7 8]",
		},
		{
			name:      "a wrapper that forwards the name keeps one call per category",
			wrap:      "plain",
			workers:   []resources.Vector{paper},
			queue:     first("wide", "narrow", "wide", "narrow", "wide", "narrow", "wide", "narrow"),
			wantLog:   "[allocate:wide allocate:narrow]",
			wantStart: "[[1 0] [2 0] [4 0]]",
			wantQueue: "[3 5 6 7 8]",
		},
		{
			name:      "capability hidden: one call per queued first attempt, same placements",
			wrap:      "renamed",
			workers:   []resources.Vector{paper},
			queue:     first("wide", "narrow", "wide", "narrow", "wide", "narrow", "wide", "narrow"),
			wantLog:   "[allocate:wide allocate:narrow allocate:wide allocate:narrow allocate:wide allocate:narrow allocate:wide allocate:narrow]",
			wantStart: "[[1 0] [2 0] [4 0]]",
			wantQueue: "[3 5 6 7 8]",
		},
		{
			name:      "nothing is remembered from one pass to the next",
			passes:    2,
			workers:   []resources.Vector{paper},
			queue:     first("wide", "wide", "wide"),
			wantLog:   "[allocate:wide allocate:wide]",
			wantStart: "[[1 0] [2 0]]",
			wantQueue: "[3]",
		},
		{
			name:      "an unstable category draws per task and a miss does not stick",
			sampled:   true,
			workers:   []resources.Vector{paper},
			queue:     first("u", "u", "u"),
			seq:       map[string][]resources.Vector{"u": {paper.Scale(2), narrow, paper.Scale(2)}},
			wantLog:   "[allocate:u allocate:u allocate:u]",
			wantStart: "[[2 0]]",
			wantQueue: "[1 3]",
		},
		{
			// Eight stable categories fill the memo; the ninth is asked for
			// every task and its misses are not remembered. A memoised one
			// is still served without a call.
			name:      "a ninth category falls back to one call per task",
			workers:   []resources.Vector{paper},
			queue:     memoFull,
			wantLog:   "[allocate:c0 allocate:c1 allocate:c2 allocate:c3 allocate:c4 allocate:c5 allocate:c6 allocate:c7 allocate:huge allocate:huge allocate:huge]",
			wantStart: "[[100 0] [101 0] [102 0] [103 0] [104 0] [105 0] [106 0] [107 0] [3 0]]",
			wantQueue: "[1 2 4]",
		},
		{
			// A retry or an eviction victim keeps its vector: no policy call,
			// and its miss says nothing about its category's first attempts.
			name:      "a held allocation is placed as is",
			workers:   []resources.Vector{narrow, paper},
			queue:     []queued{{key: 7, cat: "narrow", held: &wide}, {key: 8, cat: "narrow", held: ptr(paper.Scale(2))}, {key: 9, cat: "narrow"}},
			wantLog:   "[allocate:narrow]",
			wantStart: "[[7 1] [9 0]]",
			wantQueue: "[8]",
		},
		{
			name:      "the miss bound ends the pass and keeps the unscanned tail in order",
			maxMisses: 2,
			workers:   []resources.Vector{paper},
			queue:     []queued{{key: 1, cat: "huge"}, {key: 2, cat: "wide"}, {key: 3, cat: "huge"}, {key: 4, cat: "huge"}, {key: 5, cat: "wide"}, {key: 6, cat: "huge"}},
			wantLog:   "[allocate:huge allocate:wide]",
			wantStart: "[[2 0]]",
			wantQueue: "[1 3 4 5 6]",
		},
		{
			name:      "without a bound the whole queue is scanned",
			workers:   []resources.Vector{paper},
			queue:     []queued{{key: 1, cat: "huge"}, {key: 2, cat: "wide"}, {key: 3, cat: "huge"}, {key: 4, cat: "huge"}, {key: 5, cat: "wide"}, {key: 6, cat: "huge"}},
			wantLog:   "[allocate:huge allocate:wide]",
			wantStart: "[[2 0] [5 0]]",
			wantQueue: "[1 3 4 6]",
		},
		{
			name:      "no workers: everything waits",
			queue:     first("wide", "narrow"),
			wantLog:   "[allocate:wide allocate:narrow]",
			wantQueue: "[1 2]",
		},
		{
			// Nothing behind the first miss can place: the pass ends there
			// and the unscanned rest stays queued in order.
			name:        "one stable category: the pass stops at its first miss",
			workers:     []resources.Vector{paper},
			queue:       first("wide", "wide", "wide", "wide", "wide", "wide"),
			wantLog:     "[allocate:wide]",
			wantStart:   "[[1 0] [2 0]]",
			wantQueue:   "[3 4 5 6]",
			wantScanned: 3,
		},
		{
			name:        "the miss bound and the early end stop at the same entry",
			maxMisses:   1,
			workers:     []resources.Vector{paper},
			queue:       first("wide", "wide", "wide", "wide", "wide", "wide"),
			wantLog:     "[allocate:wide]",
			wantStart:   "[[1 0] [2 0]]",
			wantQueue:   "[3 4 5 6]",
			wantScanned: 3,
		},
		{
			// wide misses at key 3, but narrow still places at key 4 on the
			// small worker; once narrow has nothing queued, the last wide
			// is left unscanned.
			name:        "two categories: no early end while one has not missed",
			workers:     []resources.Vector{paper, narrow},
			queue:       first("wide", "wide", "wide", "narrow", "wide"),
			wantLog:     "[allocate:wide allocate:narrow]",
			wantStart:   "[[1 0] [2 0] [4 1]]",
			wantQueue:   "[3 5]",
			wantScanned: 4,
		},
		{
			// The ninth category overflows the table, so the pass cannot
			// know that every category has missed and walks the queue.
			name:        "a ninth category: no early end",
			queue:       append(append([]queued{{key: 1, cat: "huge"}}, memoFull[:8]...), queued{key: 2, cat: "huge"}, queued{key: 3, cat: "huge"}),
			wantLog:     "[allocate:huge allocate:c0 allocate:c1 allocate:c2 allocate:c3 allocate:c4 allocate:c5 allocate:c6 allocate:c7]",
			wantQueue:   "[1 100 101 102 103 104 105 106 107 2 3]",
			wantScanned: 11,
		},
		{
			// No first attempt is queued, yet the held entry behind the
			// first miss still places.
			name:        "an unscanned held entry: no early end",
			workers:     []resources.Vector{paper},
			queue:       []queued{{key: 7, cat: "wide", held: ptr(paper.Scale(2))}, {key: 8, cat: "wide", held: &wide}},
			wantLog:     "[]",
			wantStart:   "[[8 0]]",
			wantQueue:   "[7]",
			wantScanned: 2,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pol := &scriptedPolicy{
				name:  allocator.MaxSeen,
				alloc: map[string]resources.Vector{"wide": wide, "narrow": narrow, "huge": paper.Scale(2)},
				seq:   tc.seq,
			}
			if tc.sampled {
				pol.name = allocator.Greedy
			}
			for i := 0; i < 8; i++ {
				pol.alloc[fmt.Sprint("c", i)] = tiny
			}
			var policy allocator.Policy = pol
			switch tc.wrap {
			case "plain":
				policy = plainPolicy{pol}
			case "renamed":
				policy = renamedPolicy{pol}
			}
			tasks := map[int]*Task{}
			var started [][2]int
			c := New(FirstFit, tc.maxMisses, policy, Driver{
				Start: func(task *Task, w *Worker) {
					if !w.Holds(task) || !task.HasAlloc || task != tasks[task.Key()] {
						t.Errorf("key %d started on worker %d, which does not hold it: header %+v", task.Key(), w.ID(), task)
					}
					started = append(started, [2]int{task.Key(), w.ID()})
				},
			})
			for id, shape := range tc.workers {
				c.Add(id, shape)
			}
			for _, q := range tc.queue {
				task := &Task{ID: q.key, Category: q.cat}
				tasks[q.key] = task
				enqueue(c, q.key, task, q.held)
			}
			for pass := 0; pass < max(tc.passes, 1); pass++ {
				c.Dispatch()
			}
			if tc.wantScanned != 0 && c.scanned != tc.wantScanned {
				t.Errorf("the pass read %d queue entries, want %d", c.scanned, tc.wantScanned)
			}
			if got := fmt.Sprint(pol.log); got != tc.wantLog {
				t.Errorf("policy calls %s, want %s", got, tc.wantLog)
			}
			if tc.wantStart == "" {
				tc.wantStart = "[]"
			}
			if got := fmt.Sprint(started); got != tc.wantStart {
				t.Errorf("started %s, want %s", got, tc.wantStart)
			}
			if err := checkQueueCounts(c); err != nil {
				t.Error(err)
			}
			if got := fmt.Sprint(queueContents(&c.Ready)); got != tc.wantQueue {
				t.Errorf("left queued %s, want %s", got, tc.wantQueue)
			}
			if c.InFlight() != len(started) {
				t.Errorf("ledger holds %d tasks, %d were started", c.InFlight(), len(started))
			}
		})
	}
}

func ptr[T any](v T) *T { return &v }

// enqueue puts t on c's ready queue under key the way the settle transitions
// and Submit do: with held set the task keeps that allocation and joins the
// held block (the table lists those first); otherwise it is a first attempt.
func enqueue(c *Core, key int, t *Task, held *resources.Vector) {
	if held == nil {
		c.Submit(key, t)
		return
	}
	t.key, t.Alloc, t.HasAlloc = key, *held, true
	c.Ready.PushBack(t)
	c.held++
}

// TestEvictedTasksRequeueAsAscendingBlock pins the recovery order both
// engines get from the core: the tasks an evicted worker held come back in
// ascending key order whatever order they were placed and released in, and
// PushFrontAll puts them ahead of what was already waiting as one block — not
// prepended one at a time, which would leave the queue front in descending
// order.
func TestEvictedTasksRequeueAsAscendingBlock(t *testing.T) {
	c := New(FirstFit, 0, nil, Driver{})
	w, other := c.Add(0, resources.PaperWorker()), c.Add(1, resources.PaperWorker())
	for _, task := range keyedAll(7, 3, 13, 5, 11, 2, 4) { // deliberately unsorted
		task.Alloc = resources.New(1, 100, 100, 60)
		if task.key == 4 {
			c.Place(other, task)
		} else {
			c.Place(w, task)
		}
	}
	c.Release(w, w.held[2])    // 13, mid-row: the swap-remove moves 2 into its place
	c.Ready.PushBack(keyed(9)) // already waiting before the eviction
	c.Ready.PushFrontAll(c.Evict(w, nil))
	if got, want := queueContents(&c.Ready), []int{2, 3, 5, 7, 11, 9}; !equalInts(got, want) {
		t.Fatalf("ready queue after eviction = %v, want %v", got, want)
	}
	if alive := c.AppendWorkers(nil); c.Alive() != 1 || len(alive) != 1 || alive[0] != other || c.InFlight() != 1 {
		t.Fatalf("evicted worker still in the alive set (%d workers, %d in flight)", c.Alive(), c.InFlight())
	}
}
