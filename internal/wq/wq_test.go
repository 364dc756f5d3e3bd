package wq

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"dynalloc/internal/allocator"
	"dynalloc/internal/dist"
	"dynalloc/internal/metrics"
	"dynalloc/internal/resources"
	"dynalloc/internal/sim"
	"dynalloc/internal/workflow"
)

// quickWorkflow builds a short-runtime workload so live integration tests
// finish in milliseconds at the default time scale.
func quickWorkflow(n int, seed uint64) *workflow.Workflow {
	r := dist.NewRand(seed)
	w := &workflow.Workflow{Name: "quick"}
	mem := dist.Mixture{Components: []dist.Component{
		{Weight: 1, Sampler: dist.Normal{Mean: 300, Stddev: 30, Min: 50}},
		{Weight: 1, Sampler: dist.Normal{Mean: 900, Stddev: 60, Min: 50}},
	}}
	for i := 0; i < n; i++ {
		w.Tasks = append(w.Tasks, workflow.Task{
			ID:       i + 1,
			Category: "quick",
			Consumption: resources.New(
				0.5+r.Float64(),
				mem.Sample(r),
				100+r.Float64()*50,
				5+r.Float64()*15,
			),
		})
	}
	return w
}

// startWorkers connects n workers to m's listener at addr and returns once
// all n have registered, so a run that follows sees every one of them.
func startWorkers(t *testing.T, ctx context.Context, m *Manager, addr string, n int, cfg WorkerConfig) *sync.WaitGroup {
	t.Helper()
	want := m.Workers() + n
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := RunWorker(ctx, addr, cfg); err != nil && ctx.Err() == nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	waitFor(t, fmt.Sprintf("%d workers to register", want), func() bool { return m.Workers() == want })
	return &wg
}

func TestLiveWorkflowWithAllocator(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	pol := allocator.MustNew(allocator.Exhaustive, allocator.Config{Seed: 1})
	m := NewManager(pol)
	addr, err := m.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wg := startWorkers(t, ctx, m, addr, 3, WorkerConfig{})
	defer wg.Wait()
	defer m.Close()

	w := quickWorkflow(60, 2)
	res, err := m.RunWorkflow(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 60 {
		t.Fatalf("%d outcomes", len(res.Outcomes))
	}
	for _, k := range resources.AllocatedKinds() {
		awe := res.Acc.AWE(k)
		if awe <= 0 || awe > 1+1e-9 {
			t.Errorf("AWE(%s) = %v", k, awe)
		}
	}
	// The bimodal memory shape forces at least some exploration failures.
	if res.Acc.Attempts() < 60 {
		t.Errorf("attempts = %d", res.Acc.Attempts())
	}
	if m.Workers() != 3 {
		t.Errorf("workers = %d, want 3", m.Workers())
	}
}

func TestLiveOracleIsPerfect(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	w := quickWorkflow(30, 3)
	m := NewManager(sim.NewOracle(w))
	addr, err := m.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wg := startWorkers(t, ctx, m, addr, 2, WorkerConfig{})
	defer wg.Wait()
	defer m.Close()

	res, err := m.RunWorkflow(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range resources.AllocatedKinds() {
		if awe := res.Acc.AWE(k); math.Abs(awe-1) > 1e-9 {
			t.Errorf("oracle AWE(%s) = %v, want 1", k, awe)
		}
	}
	if res.Acc.Retries() != 0 {
		t.Errorf("oracle retries = %d", res.Acc.Retries())
	}
}

func TestLiveBarriers(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	w := quickWorkflow(20, 4)
	w.Barriers = []int{10}
	for i := range w.Tasks {
		if i < 10 {
			w.Tasks[i].Category = "phase1"
		} else {
			w.Tasks[i].Category = "phase2"
		}
	}
	var mu sync.Mutex
	var order []string
	base := sim.NewOracle(w)
	rec := recordingPolicy{Policy: base, onAllocate: func(cat string) {
		mu.Lock()
		order = append(order, cat)
		mu.Unlock()
	}}
	m := NewManager(rec)
	addr, err := m.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wg := startWorkers(t, ctx, m, addr, 4, WorkerConfig{})
	defer wg.Wait()
	defer m.Close()

	if _, err := m.RunWorkflow(ctx, w); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	firstP2 := -1
	for i, cat := range order {
		if cat == "phase2" {
			firstP2 = i
			break
		}
	}
	if firstP2 >= 0 && firstP2 < 10 {
		t.Errorf("phase2 allocated at position %d, before phase1 finished", firstP2)
	}
}

type recordingPolicy struct {
	allocator.Policy
	onAllocate func(cat string)
}

func (r recordingPolicy) Allocate(cat string, id int) resources.Vector {
	r.onAllocate(cat)
	return r.Policy.Allocate(cat, id)
}

func TestLiveWorkerEvictionRequeues(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	w := quickWorkflow(30, 5)
	// Slow the tasks down so the doomed worker is killed mid-flight.
	for i := range w.Tasks {
		w.Tasks[i].Consumption = w.Tasks[i].Consumption.With(resources.Time, 200)
	}
	m := NewManager(sim.NewOracle(w))
	addr, err := m.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	doomedCtx, killWorker := context.WithCancel(ctx)
	go RunWorker(doomedCtx, addr, WorkerConfig{TimeScale: 1e-3}) // 0.2 s per task
	waitFor(t, "the doomed worker's registration", func() bool { return m.Workers() == 1 })
	wg := startWorkers(t, ctx, m, addr, 2, WorkerConfig{TimeScale: 1e-3})
	defer wg.Wait()
	defer m.Close()

	go func() {
		time.Sleep(100 * time.Millisecond)
		killWorker()
	}()

	res, err := m.RunWorkflow(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 30 {
		t.Fatalf("%d outcomes", len(res.Outcomes))
	}
	evicted := 0
	for _, o := range res.Outcomes {
		for _, a := range o.Attempts {
			if a.Status == metrics.Evicted {
				evicted++
			}
		}
	}
	if evicted == 0 {
		t.Log("no task was interrupted by the eviction (timing-dependent); completion is still verified")
	}
	for _, k := range resources.AllocatedKinds() {
		if awe := res.Acc.AWE(k); math.Abs(awe-1) > 1e-9 {
			t.Errorf("AWE(%s) = %v, want 1 (evictions excluded)", k, awe)
		}
	}
}

func TestRunWorkflowCancellation(t *testing.T) {
	w := quickWorkflow(5, 6)
	m := NewManager(sim.NewOracle(w))
	if _, err := m.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// No workers connect; the run must end when the context does.
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if _, err := m.RunWorkflow(ctx, w); err == nil {
		t.Error("expected cancellation error with no workers")
	}
}

func TestWorkerRejectsBadManager(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := RunWorker(ctx, "127.0.0.1:1", WorkerConfig{}); err == nil {
		t.Error("dial to a closed port should fail")
	}
}
