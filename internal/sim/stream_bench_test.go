package sim

import (
	"testing"

	"dynalloc/internal/allocator"
	"dynalloc/internal/opportunistic"
	"dynalloc/internal/workflow"
)

// runStream drives nTasks lazily generated tasks through the streaming
// engine on a pool that churns through roughly horizon workers (mean lease
// 260s against ~130s tasks, so evictions and retries are constant), folding
// outcomes into the accumulator as they finish.
func runStream(tb testing.TB, nTasks, window int, horizon float64) *Result {
	tb.Helper()
	src, err := workflow.SourceByName("uniform", nTasks, 42)
	if err != nil {
		tb.Fatal(err)
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
		tb.Fatal(err)
	}
	if res.Acc.Tasks() != nTasks {
		tb.Fatalf("completed %d of %d tasks", res.Acc.Tasks(), nTasks)
	}
	return res
}

// benchStream times runStream. The peak-window metric is the largest number
// of task records alive at once — the run's working set is that window, not
// the task count.
func benchStream(b *testing.B, nTasks, window int, horizon float64) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := runStream(b, nTasks, window, horizon)
		b.ReportMetric(float64(res.PeakWindow), "peak-window")
		b.ReportMetric(float64(res.PeakWorkers), "peak-workers")
	}
}

// BenchmarkStream1M is the headline scaling scenario: one million tasks
// against ~100k churning workers in one process. It runs close to a minute,
// so the ci benchmark smoke skips it.
func BenchmarkStream1M(b *testing.B) { benchStream(b, 1_000_000, 16384, 1e5) }

// BenchmarkStream100k is the same shape at a tenth the scale (~10k churning
// workers).
func BenchmarkStream100k(b *testing.B) { benchStream(b, 100_000, 16384, 1e4) }

// TestStream100kAllocCeiling keeps the engine's footprint window-bounded: a
// Stream100k run measures ~117k allocations (~1.2 per task, setup
// included), and 150k is the ceiling. One more allocation per task would
// cross it, and so would either of two quieter regressions: a task store that
// allocates each entry on its own (~182k) or worker rows that allocate their
// first held tasks instead of keeping them inline (~157k).
func TestStream100kAllocCeiling(t *testing.T) {
	got := testing.AllocsPerRun(1, func() { runStream(t, 100_000, 16384, 1e4) })
	t.Logf("%.0f allocations", got)
	if got > 150_000 {
		t.Errorf("a 100k-task run allocates %.0f times, over the ceiling of 150000", got)
	}
}
