package flow

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"dynalloc/internal/allocator"
	"dynalloc/internal/metrics"
	"dynalloc/internal/resources"
	"dynalloc/internal/workflow"
	"dynalloc/internal/wq"
)

func task(cores, mem, disk, runtime float64) workflow.Task {
	return workflow.Task{Consumption: resources.New(cores, mem, disk, runtime)}
}

func TestLocalExecutorBasics(t *testing.T) {
	pol := allocator.MustNew(allocator.MaxSeen, allocator.Config{Seed: 1})
	f := New(&LocalExecutor{Policy: pol})
	fut := f.Submit("work", task(1, 500, 100, 30))
	o := fut.Wait()
	if o.TaskID != 1 || o.Category != "work" {
		t.Fatalf("outcome = %+v", o)
	}
	if len(o.Attempts) == 0 || o.Attempts[len(o.Attempts)-1].Status != metrics.Success {
		t.Fatal("task did not succeed")
	}
	// Wait is idempotent.
	if fut.Wait().TaskID != 1 {
		t.Fatal("second Wait diverged")
	}
}

func TestFlowLearnsAcrossSubmissions(t *testing.T) {
	pol := allocator.MustNew(allocator.Exhaustive, allocator.Config{Seed: 2})
	f := New(&LocalExecutor{Policy: pol})
	// A steady stream of identical tasks: after exploration, allocations
	// should settle near the observed peak.
	for i := 0; i < 30; i++ {
		f.Submit("steady", task(1, 400, 100, 10)).Wait()
	}
	fut := f.Submit("steady", task(1, 400, 100, 10))
	o := fut.Wait()
	if got := o.FinalAlloc().Get(resources.Memory); got != 400 {
		t.Errorf("steady-state allocation = %v, want 400", got)
	}
}

func TestFlowDynamicGeneration(t *testing.T) {
	// Application logic decides what to submit based on results — the
	// defining behaviour of a dynamic workflow.
	pol := allocator.MustNew(allocator.Greedy, allocator.Config{Seed: 3})
	f := New(&LocalExecutor{Policy: pol})
	var phase2 []*Future
	for i := 0; i < 20; i++ {
		o := f.Submit("rank", task(1, 1000+float64(i%5)*40, 10, 20)).Wait()
		// Follow-up work is generated only for "interesting" results.
		if o.Peak.Get(resources.Memory) > 1100 {
			phase2 = append(phase2, f.Submit("energy", task(2, 200, 10, 60)))
		}
	}
	if len(phase2) == 0 {
		t.Fatal("no dynamic follow-up tasks generated")
	}
	outcomes := f.WaitAll()
	if len(outcomes) != 20+len(phase2) {
		t.Fatalf("%d outcomes", len(outcomes))
	}
	acc := f.Metrics()
	if acc.Tasks() != len(outcomes) {
		t.Errorf("metrics tasks = %d", acc.Tasks())
	}
	for _, k := range resources.AllocatedKinds() {
		if awe := acc.AWE(k); awe <= 0 || awe > 1 {
			t.Errorf("AWE(%s) = %v", k, awe)
		}
	}
}

func TestWaitAllCountsEachOutcomeOnce(t *testing.T) {
	pol := allocator.MustNew(allocator.MaxSeen, allocator.Config{Seed: 4})
	f := New(&LocalExecutor{Policy: pol})
	for i := 0; i < 5; i++ {
		f.Submit("w", task(1, 100, 10, 1))
	}
	f.WaitAll()
	f.WaitAll() // second call must not double-count
	if got := f.Metrics().Tasks(); got != 5 {
		t.Errorf("tasks counted = %d, want 5", got)
	}
}

func TestLocalExecutorAbandonsAfterMaxAttempts(t *testing.T) {
	// A policy that never escalates forces abandonment: the task is given up
	// once it has been exhausted more than MaxAttempts times, and delivered
	// the way the live manager delivers an abandoned task.
	const limit = 3
	f := New(&LocalExecutor{Policy: stuck{}, MaxAttempts: limit})
	f.Submit("w", task(1, 500, 10, 10))
	o := f.WaitAll()[0]
	if o.Retries() != limit+1 {
		t.Errorf("retries = %d, want %d (limit+1)", o.Retries(), limit+1)
	}
	if !o.FinalAlloc().IsZero() {
		t.Error("abandoned task should have no successful attempt")
	}
	if last := o.Attempts[len(o.Attempts)-1]; last.Status != metrics.Failed {
		t.Errorf("last attempt status = %v, want failed", last.Status)
	}
	if got := f.Metrics().Failures(); got != 1 {
		t.Errorf("accumulator failures = %d, want 1", got)
	}
}

type stuck struct{}

func (stuck) Allocate(string, int) resources.Vector {
	return resources.New(0.1, 1, 1, resources.Unlimited)
}
func (stuck) Retry(_ string, _ int, prev resources.Vector, _ []resources.Kind) resources.Vector {
	return prev
}
func (stuck) Observe(string, int, resources.Vector, float64) {}
func (stuck) Name() string                                   { return "stuck" }

func TestConcurrentSubmissions(t *testing.T) {
	pol := allocator.MustNew(allocator.Exhaustive, allocator.Config{Seed: 5})
	f := New(&LocalExecutor{Policy: pol})
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f.Submit("par", task(1, 100+float64(i), 10, 5)).Wait()
		}(i)
	}
	wg.Wait()
	if got := len(f.WaitAll()); got != 50 {
		t.Errorf("outcomes = %d", got)
	}
}

// The same application code drives the live wq engine: wq.Manager
// satisfies flow.Executor.
func TestFlowOverLiveManager(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	pol := allocator.MustNew(allocator.Exhaustive, allocator.Config{Seed: 6})
	m := wq.NewManager(pol)
	addr, err := m.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = wq.RunWorker(ctx, addr, wq.WorkerConfig{})
		}()
	}
	defer wg.Wait()
	defer m.Close()

	f := New(m)
	for i := 0; i < 20; i++ {
		f.Submit("live", task(0.5, 200+float64(10*i), 50, 5+float64(i%3)))
	}
	outcomes := f.WaitAll()
	if len(outcomes) != 20 {
		t.Fatalf("%d outcomes", len(outcomes))
	}
	acc := f.Metrics()
	if awe := acc.AWE(resources.Memory); awe <= 0 || awe > 1 {
		t.Errorf("memory AWE = %v", awe)
	}
	if math.IsNaN(acc.AWE(resources.Cores)) {
		t.Error("NaN AWE")
	}
}

var _ Executor = (*wq.Manager)(nil)
