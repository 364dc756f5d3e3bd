package allocator

import (
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

// BenchmarkAllocCycle measures the full Predict/Retry/Observe cycle per
// algorithm on a two-category bimodal workload.
func BenchmarkAllocCycle(b *testing.B) {
	for _, alg := range ExtendedNames() {
		b.Run(string(alg), func(b *testing.B) {
			var a *Allocator
			var drive *rand.Rand
			cats := [2]string{"preproc", "fit"}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%cycleTasks == 0 {
					b.StopTimer()
					a = MustNew(alg, Config{Seed: 7})
					drive = rand.New(rand.NewPCG(7, 0xA11))
					// Warm both categories out of exploratory mode so the
					// steady state, not the fixed exploration constant, is
					// measured.
					for task := 1; task <= 40; task++ {
						a.Observe(cats[task%2], task, resources.New(2, 1000, 300, 30), 30)
					}
					b.StartTimer()
				}
				task := 40 + i%cycleTasks + 1
				cat := cats[task%2]
				peak := resources.New(
					1+3*drive.Float64(),
					200+3000*drive.Float64(),
					100+800*drive.Float64(),
					10+50*drive.Float64(),
				)
				alloc := a.Allocate(cat, task)
				for hop := 0; hop < 64; hop++ {
					var exceeded []resources.Kind
					for _, k := range resources.AllocatedKinds() {
						if peak.Get(k) > alloc.Get(k) {
							exceeded = append(exceeded, k)
						}
					}
					if len(exceeded) == 0 {
						break
					}
					alloc = a.Retry(cat, task, alloc, exceeded)
				}
				a.Observe(cat, task, peak, 30)
			}
		})
	}
}

// BenchmarkAllocateStableHit measures the call a dispatch pass makes for
// every queued first attempt when a wrapper hides StablePolicy: an Allocate
// of a stable category whose memo is the one published, served by one atomic
// load without the lock. The parallel sub-run has every goroutine read the
// same memo. Either way it must not allocate.
func BenchmarkAllocateStableHit(b *testing.B) {
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
