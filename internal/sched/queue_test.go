package sched

import (
	"math/rand/v2"
	"testing"
)

// keyed returns a task submitted under key, for the tests that drive the
// queue or the ledger without a core.
func keyed(key int) *Task { return &Task{ID: key, key: key} }

// keyedAll returns a task for each key, in order.
func keyedAll(keys ...int) []*Task {
	out := make([]*Task, len(keys))
	for i, key := range keys {
		out[i] = keyed(key)
	}
	return out
}

// keysOf returns the keys of ts, in order.
func keysOf(ts []*Task) []int {
	out := make([]int, len(ts))
	for i, t := range ts {
		out[i] = t.key
	}
	return out
}

// queueContents returns the keys of the queued tasks, front first.
func queueContents(q *Queue) []int {
	out := make([]int, 0, q.Len())
	for i := 0; i < q.Len(); i++ {
		out = append(out, q.At(i).key)
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestQueueBasics(t *testing.T) {
	var q Queue
	if q.Len() != 0 {
		t.Fatal("zero value not empty")
	}
	for i := 0; i < 40; i++ { // crosses the initial capacity twice
		q.PushBack(keyed(i))
	}
	q.PushFront(keyed(-1))
	want := []int{-1}
	for i := 0; i < 40; i++ {
		want = append(want, i)
	}
	if got := queueContents(&q); !equalInts(got, want) {
		t.Fatalf("contents = %v, want %v", got, want)
	}
	q.Set(0, keyed(99))
	if q.At(0).key != 99 {
		t.Fatal("Set/At disagree")
	}
	q.Cut(3, q.Len())
	if got := queueContents(&q); !equalInts(got, []int{99, 0, 1}) {
		t.Fatalf("after truncate: %v", got)
	}
}

func TestQueuePushFrontAllKeepsBlockOrder(t *testing.T) {
	var q Queue
	q.PushBack(keyed(10))
	q.PushBack(keyed(11))
	q.PushFrontAll(keyedAll(1, 2, 3))
	if got := queueContents(&q); !equalInts(got, []int{1, 2, 3, 10, 11}) {
		t.Fatalf("contents = %v, want [1 2 3 10 11]", got)
	}
	// A block larger than the remaining capacity must still land in order.
	big := make([]*Task, 100)
	for i := range big {
		big[i] = keyed(100 + i)
	}
	q.PushFrontAll(big)
	got := queueContents(&q)
	if len(got) != 105 || got[0] != 100 || got[99] != 199 || got[100] != 1 {
		t.Fatalf("large block prepend broke order: %v", got[:5])
	}
}

// TestQueueCut removes every gap [from, to) of a ten-element queue, empty gaps
// and the whole queue included, with the ring's contents starting at every
// offset of a 16-slot buffer, so both moves cross the wrap point: the front
// moves forward when it is the shorter side, the back moves down otherwise.
func TestQueueCut(t *testing.T) {
	const n = 10
	for offset := 0; offset < 16; offset++ {
		for from := 0; from <= n; from++ {
			for to := from; to <= n; to++ {
				q := Queue{buf: make([]*Task, 16), head: offset}
				var want []int
				for i := 0; i < n; i++ {
					q.PushBack(keyed(i))
					if i < from || i >= to {
						want = append(want, i)
					}
				}
				q.Cut(from, to)
				if got := queueContents(&q); !equalInts(got, want) {
					t.Fatalf("offset %d: Cut(%d, %d) left %v, want %v", offset, from, to, got, want)
				}
				head := offset
				if from < n-to {
					head = (offset + to - from) % 16
				}
				if q.head != head {
					t.Fatalf("offset %d: Cut(%d, %d) moved the head to %d, want %d", offset, from, to, q.head, head)
				}
			}
		}
	}
}

func TestQueuePanics(t *testing.T) {
	var q Queue
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("Cut past the end", func() { q.Cut(0, 1) })
	mustPanic("Cut backwards", func() { q.Cut(1, 0) })
}

// TestQueueMatchesSlice drives the ring buffer and a plain-slice model
// through the same randomized operation sequence — including the in-place
// compaction pattern dispatch uses — and demands identical contents at
// every step.
func TestQueueMatchesSlice(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	var q Queue
	var model []int
	next := 0
	for step := 0; step < 5000; step++ {
		switch op := r.IntN(4); {
		case op == 0: // push back
			q.PushBack(keyed(next))
			model = append(model, next)
			next++
		case op == 1: // push front
			q.PushFront(keyed(next))
			model = append([]int{next}, model...)
			next++
		case op == 2: // block prepend, eviction-style
			block := []int{next, next + 1, next + 2}
			next += 3
			q.PushFrontAll(keyedAll(block...))
			model = append(append([]int{}, block...), model...)
		case op == 3 && len(model) > 0: // dispatch-style compaction
			kept := 0
			var keptModel []int
			for i := 0; i < q.Len(); i++ {
				if q.At(i).key%3 == 0 { // drop every third key
					continue
				}
				q.Set(kept, q.At(i))
				kept++
				keptModel = append(keptModel, model[i])
			}
			q.Cut(kept, q.Len())
			model = keptModel
		}
		if got := queueContents(&q); !equalInts(got, model) {
			t.Fatalf("step %d: queue %v diverged from model %v", step, got, model)
		}
	}
}
