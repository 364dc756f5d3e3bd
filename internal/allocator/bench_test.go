package allocator

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"dynalloc/internal/resources"
)

// The allocator benchmark suite: one full scheduler interaction per
// iteration — Allocate, escalate through Retry until the task's peak fits,
// Observe — for every algorithm of the evaluation. This is the per-task
// overhead the paper's Table I argues is negligible.

// cycleTasks is how many tasks BenchmarkAllocCycle runs through one
// allocator: every cycleTasks it starts over, with the timer stopped, from a
// fresh allocator and the same task stream. Each category's record list so
// grows from 20 to 520 and back, whatever b.N is, and ns/op compares across
// -benchtime settings and commits.
const cycleTasks = 1000

// allocCycle drives one allocator through the benchmark's task stream.
type allocCycle struct {
	a        *Allocator
	drive    *rand.Rand
	i        int
	exceeded []resources.Kind // reused, so the driver itself allocates nothing
}

var cycleCategories = [2]string{"preproc", "fit"}

// newAllocCycle returns a fresh allocator, with both categories warmed out
// of exploratory mode so the steady state, not the fixed exploration
// constant, is measured.
func newAllocCycle(alg Name) *allocCycle {
	c := &allocCycle{a: MustNew(alg, Config{Seed: 7}), drive: rand.New(rand.NewPCG(7, 0xA11))}
	for task := 1; task <= 40; task++ {
		c.a.Observe(cycleCategories[task%2], task, resources.New(2, 1000, 300, 30), 30)
	}
	return c
}

// step runs the next task: Allocate, Retry until its peak fits, Observe.
func (c *allocCycle) step() {
	c.i++
	task := 40 + c.i
	cat := cycleCategories[task%2]
	peak := resources.New(
		1+3*c.drive.Float64(),
		200+3000*c.drive.Float64(),
		100+800*c.drive.Float64(),
		10+50*c.drive.Float64(),
	)
	alloc := c.a.Allocate(cat, task)
	for hop := 0; hop < 64; hop++ {
		c.exceeded = c.exceeded[:0]
		for _, k := range resources.AllocatedKinds() {
			if peak.Get(k) > alloc.Get(k) {
				c.exceeded = append(c.exceeded, k)
			}
		}
		if len(c.exceeded) == 0 {
			break
		}
		alloc = c.a.Retry(cat, task, alloc, c.exceeded)
	}
	c.a.Observe(cat, task, peak, 30)
}

// BenchmarkAllocCycle measures the full Predict/Retry/Observe cycle per
// algorithm on a two-category bimodal workload, cycleTasks tasks to an
// allocator. The two bucketing algorithms also run 10 000 and 100 000 tasks
// to an allocator (the n=… sub-benchmarks), where the record lists, and the
// rebuild and partition they cost, grow 10 and 100 times longer; their ns/op
// is the mean over a whole stream only with -benchtime a multiple of n, e.g.
//
//	go test ./internal/allocator -run '^$' -bench 'AllocCycle/greedy-bucketing-n100000' -benchtime 100000x
func BenchmarkAllocCycle(b *testing.B) {
	for _, alg := range ExtendedNames() {
		b.Run(string(alg), func(b *testing.B) { benchAllocCycle(b, alg, cycleTasks) })
	}
	for _, alg := range []Name{Greedy, Exhaustive} {
		for _, n := range []int{10000, 100000} {
			b.Run(fmt.Sprintf("%s-n%d", alg, n), func(b *testing.B) { benchAllocCycle(b, alg, n) })
		}
	}
}

// benchAllocCycle runs b.N tasks, starting over from a fresh allocator, with
// the timer stopped, every n tasks.
func benchAllocCycle(b *testing.B, alg Name, n int) {
	var c *allocCycle
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%n == 0 {
			b.StopTimer()
			c = newAllocCycle(alg)
			b.StartTimer()
		}
		c.step()
	}
}

// TestAllocCycleAllocatesNothing pins what BenchmarkAllocCycle measures for
// the algorithms that recompute from a record list on every Allocate after an
// Observe: once the lists have grown, a task's whole cycle allocates nothing.
// The record columns still grow now and then; AllocsPerRun's average over
// the runs rounds that amortized growth down, as the benchmark's allocs/op
// does.
func TestAllocCycleAllocatesNothing(t *testing.T) {
	for _, alg := range []Name{Greedy, Exhaustive, Percentile} {
		c := newAllocCycle(alg)
		for range 200 {
			c.step()
		}
		if got := testing.AllocsPerRun(100, c.step); got != 0 {
			t.Errorf("%s: a task's cycle allocates %v times, want 0", alg, got)
		}
	}
}

// BenchmarkAllocateMemoHit measures the call a dispatch pass makes once per
// category per pass under a stable algorithm, and for every queued first
// attempt behind a wrapper that reports a name of its own: an Allocate of a
// stable category whose memo is the one published, served by one atomic load
// without the lock. The parallel sub-run has every goroutine read the same
// memo. Either way it must not allocate.
func BenchmarkAllocateMemoHit(b *testing.B) {
	a := MustNew(MaxSeen, Config{Seed: 7})
	for task := 1; task <= 20; task++ {
		a.Observe("fit", task, resources.New(2, 1000, 300, 30), 30)
	}
	want := a.Allocate("fit", 0)
	if allocs := testing.AllocsPerRun(100, func() { a.Allocate("fit", 0) }); allocs != 0 {
		b.Fatalf("a memo hit allocates %v times, want 0", allocs)
	}
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if a.Allocate("fit", i) != want {
				b.Fatal("memo moved without an Observe")
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for i := 0; pb.Next(); i++ {
				if a.Allocate("fit", i) != want {
					b.Error("memo moved without an Observe")
					return
				}
			}
		})
	})
}
