package sched

import (
	"math/rand/v2"
	"testing"
)

func queueContents(q *Queue) []int {
	out := make([]int, 0, q.Len())
	for i := 0; i < q.Len(); i++ {
		out = append(out, q.At(i))
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
		q.PushBack(i)
	}
	q.PushFront(-1)
	want := []int{-1}
	for i := 0; i < 40; i++ {
		want = append(want, i)
	}
	if got := queueContents(&q); !equalInts(got, want) {
		t.Fatalf("contents = %v, want %v", got, want)
	}
	q.Set(0, 99)
	if q.At(0) != 99 {
		t.Fatal("Set/At disagree")
	}
	q.Truncate(3)
	if got := queueContents(&q); !equalInts(got, []int{99, 0, 1}) {
		t.Fatalf("after truncate: %v", got)
	}
}

func TestQueuePushFrontAllKeepsBlockOrder(t *testing.T) {
	var q Queue
	q.PushBack(10)
	q.PushBack(11)
	q.PushFrontAll([]int{1, 2, 3})
	if got := queueContents(&q); !equalInts(got, []int{1, 2, 3, 10, 11}) {
		t.Fatalf("contents = %v, want [1 2 3 10 11]", got)
	}
	// A block larger than the remaining capacity must still land in order.
	big := make([]int, 100)
	for i := range big {
		big[i] = 100 + i
	}
	q.PushFrontAll(big)
	got := queueContents(&q)
	if len(got) != 105 || got[0] != 100 || got[99] != 199 || got[100] != 1 {
		t.Fatalf("large block prepend broke order: %v", got[:5])
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
	mustPanic("Truncate", func() { q.Truncate(1) })
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
			q.PushBack(next)
			model = append(model, next)
			next++
		case op == 1: // push front
			q.PushFront(next)
			model = append([]int{next}, model...)
			next++
		case op == 2: // block prepend, eviction-style
			block := []int{next, next + 1, next + 2}
			next += 3
			q.PushFrontAll(block)
			model = append(append([]int{}, block...), model...)
		case op == 3 && len(model) > 0: // dispatch-style compaction
			kept := 0
			var keptModel []int
			for i := 0; i < q.Len(); i++ {
				if q.At(i)%3 == 0 { // drop every third value
					continue
				}
				q.Set(kept, q.At(i))
				kept++
				keptModel = append(keptModel, model[i])
			}
			q.Truncate(kept)
			model = keptModel
		}
		if got := queueContents(&q); !equalInts(got, model) {
			t.Fatalf("step %d: queue %v diverged from model %v", step, got, model)
		}
	}
}
