package sim

import (
	"testing"

	"dynalloc/internal/allocator"
	"dynalloc/internal/opportunistic"
	"dynalloc/internal/resources"
	"dynalloc/internal/vine"
	"dynalloc/internal/workflow"
)

// The dispatch-path benchmark suite: every scenario is chosen to stress a
// different part of the simulator hot path (the ready queue, the worker
// scan, the eviction requeue) rather than the allocator, so regressions in
// the engine itself are visible.

// benchRun executes one simulation per iteration and fails the benchmark on
// any simulator error.
func benchRun(b *testing.B, cfg Config) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWorkflow generates one synthetic workload or aborts the benchmark.
func benchWorkflow(b *testing.B, name string, tasks int, seed uint64) *workflow.Workflow {
	b.Helper()
	w, err := workflow.ByName(name, tasks, seed)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkSimDispatchChurn10k is the headline dispatch-heavy scenario: a
// 10k-task workload on a churny pool, so the engine sees thousands of
// evictions, requeues, and full ready-queue scans. A policy with cheap
// predictions (max-seen) keeps the allocator off the profile.
func BenchmarkSimDispatchChurn10k(b *testing.B) {
	w := benchWorkflow(b, "bimodal", 10000, 42)
	pol := allocator.MustNew(allocator.MaxSeen, allocator.Config{Seed: 1})
	benchRun(b, Config{
		Workflow: w,
		Policy:   pol,
		Pool: opportunistic.Churn{
			Initial: 30, MeanLifetime: 900, MeanInterval: 120,
			Horizon: 2e5, KeepLastAlive: true,
		},
		PoolSeed: 7,
	})
}

// BenchmarkSimDispatchSubmitWindow10k stresses the window-gated queue scan:
// with a small SubmitWindow most of the ready queue is ungenerated on every
// dispatch pass, so queue traversal cost dominates.
func BenchmarkSimDispatchSubmitWindow10k(b *testing.B) {
	w := benchWorkflow(b, "uniform", 10000, 42)
	w.SubmitWindow = 100
	pol := allocator.MustNew(allocator.MaxSeen, allocator.Config{Seed: 1})
	benchRun(b, Config{
		Workflow: w,
		Policy:   pol,
		Pool:     opportunistic.Static{N: 50},
		PoolSeed: 7,
	})
}

// BenchmarkSimDispatchQueuePressure keeps the pool tiny relative to the
// task count so nearly every dispatch pass walks a long ready queue and
// most scans end in a placement miss.
func BenchmarkSimDispatchQueuePressure(b *testing.B) {
	w := benchWorkflow(b, "normal", 5000, 42)
	pol := allocator.MustNew(allocator.WholeMachine, allocator.Config{Seed: 1})
	benchRun(b, Config{
		Workflow: w,
		Policy:   pol,
		Pool:     opportunistic.Static{N: 4},
		PoolSeed: 7,
	})
}

// BenchmarkSimPaperPool1k is the paper's own evaluation shape (1000 tasks,
// 20-to-50-worker backfill pool) — the smallest end-to-end trajectory
// point.
func BenchmarkSimPaperPool1k(b *testing.B) {
	w := benchWorkflow(b, "uniform", 0, 42)
	pol := allocator.MustNew(allocator.Exhaustive, allocator.Config{Seed: 1})
	benchRun(b, Config{
		Workflow: w,
		Policy:   pol,
		Pool:     opportunistic.PaperPool(),
		PoolSeed: 42,
	})
}

// BenchmarkSimPlacementPolicies compares the per-policy cost of the worker
// scan itself on a mid-size run.
func BenchmarkSimPlacementPolicies(b *testing.B) {
	w := benchWorkflow(b, "bimodal", 2000, 42)
	for _, p := range Placements() {
		if p == Locality {
			continue // needs the data layer; covered by the vine tests
		}
		b.Run(p.String(), func(b *testing.B) {
			pol := allocator.MustNew(allocator.MaxSeen, allocator.Config{Seed: 1})
			benchRun(b, Config{
				Workflow: w,
				Policy:   pol,
				Pool:     opportunistic.Static{N: 20},
				PoolSeed: 7,
				Place:    p,
			})
		})
	}
}

// BenchmarkDataAwareSimulation runs the locality-aware data layer end to
// end: ColmenaXTB on 20 static workers, placed by cached input.
func BenchmarkDataAwareSimulation(b *testing.B) {
	w := benchWorkflow(b, "colmena", 0, 42)
	var res *Result
	for i := 0; i < b.N; i++ {
		layer := vine.NewLayer()
		vine.Attach(layer, w, uint64(i))
		pol := allocator.MustNew(allocator.Greedy, allocator.Config{Seed: uint64(i + 1)})
		var err error
		res, err = Run(Config{
			Workflow: w,
			Policy:   pol,
			Pool:     opportunistic.Static{N: 20},
			Place:    Locality,
			Data:     layer,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.Acc.AWE(resources.Memory), "mem-AWE%")
	b.ReportMetric(res.Makespan, "makespan-s")
}
