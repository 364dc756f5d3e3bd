package sim

import (
	"testing"

	"dynalloc/internal/allocator"
	"dynalloc/internal/opportunistic"
	"dynalloc/internal/workflow"
)

// benchStream drives nTasks lazily generated tasks through the streaming
// engine on a pool that churns through roughly horizon workers (mean lease
// 260s against ~130s tasks, so evictions and retries are constant), folding
// outcomes into the accumulator as they finish. The peak-window metric is
// the largest number of task records alive at once — the run's working set
// is that window, not the task count.
func benchStream(b *testing.B, nTasks, window int, horizon float64) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src, err := workflow.SourceByName("uniform", nTasks, 42)
		if err != nil {
			b.Fatal(err)
		}
		res, err := Run(Config{
			Source: workflow.WithSubmitWindow(src, window),
			Policy: allocator.MustNew(allocator.MaxSeen, allocator.Config{Seed: 42}),
			Pool: opportunistic.Churn{
				Initial: 256, MeanLifetime: 260, MeanInterval: 1,
				Horizon: horizon, KeepLastAlive: true,
			},
			PoolSeed:        42,
			DiscardOutcomes: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Acc.Tasks() != nTasks {
			b.Fatalf("completed %d of %d tasks", res.Acc.Tasks(), nTasks)
		}
		b.ReportMetric(float64(res.PeakWindow), "peak-window")
		b.ReportMetric(float64(res.PeakWorkers), "peak-workers")
	}
}

// BenchmarkStream1M is the headline scaling scenario: one million tasks
// against ~100k churning workers in one process. It runs close to a minute,
// so it is recorded by `make bench-stream` rather than the default suite
// (and is deliberately outside the BenchmarkSim pattern).
func BenchmarkStream1M(b *testing.B) { benchStream(b, 1_000_000, 16384, 1e5) }

// BenchmarkStream100k is the same shape at a tenth the scale (~10k churning
// workers); `make bench-stream-smoke` runs it in ci, asserting the
// allocs/op ceiling that keeps the engine's footprint window-bounded.
func BenchmarkStream100k(b *testing.B) { benchStream(b, 100_000, 16384, 1e4) }
