package dynalloc_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"dynalloc"
)

func TestPublicAPIQuickstart(t *testing.T) {
	w, err := dynalloc.GenerateWorkflow("bimodal", 80, 42)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := dynalloc.NewAllocator(dynalloc.ExhaustiveBucketing, dynalloc.AllocatorConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := dynalloc.Simulate(dynalloc.SimConfig{
		Workflow: w,
		Policy:   alloc,
		Pool:     dynalloc.StaticPool(6),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []dynalloc.Kind{dynalloc.Cores, dynalloc.Memory, dynalloc.Disk} {
		awe := res.Acc.AWE(k)
		if awe <= 0 || awe > 1 {
			t.Errorf("AWE(%s) = %v", k, awe)
		}
	}
}

func TestPublicAPISequentialAndOracle(t *testing.T) {
	w, err := dynalloc.GenerateWorkflow("normal", 50, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dynalloc.SimulateSequential(w, dynalloc.NewOracle(w), dynalloc.RampEarly)
	if err != nil {
		t.Fatal(err)
	}
	if awe := res.Acc.AWE(dynalloc.Memory); math.Abs(awe-1) > 1e-9 {
		t.Errorf("oracle AWE = %v", awe)
	}
}

func TestPublicAPINames(t *testing.T) {
	if len(dynalloc.AlgorithmNames()) != 7 {
		t.Error("expected 7 algorithms")
	}
	if len(dynalloc.WorkflowNames()) != 7 {
		t.Error("expected 7 workloads")
	}
	v := dynalloc.NewVector(1, 2, 3, 4)
	if v.Get(dynalloc.Disk) != 3 {
		t.Error("vector accessor broken")
	}
	if dynalloc.PaperWorker().Get(dynalloc.Cores) != 16 {
		t.Error("paper worker shape")
	}
}

func TestPublicAPIPools(t *testing.T) {
	for _, pool := range []dynalloc.PoolModel{
		dynalloc.StaticPool(5),
		dynalloc.BackfillPool(2, 6, 30),
		dynalloc.ChurnPool(3, 600, 300, 3600),
	} {
		if len(pool.Schedule(1)) == 0 {
			t.Errorf("pool %s produced no workers", pool.Name())
		}
	}
}

// TestLargeWorkflowConvergence checks the paper's future-work hypothesis
// (Section VII): the bucketing algorithms should perform at least as well on
// much larger workflows, since they converge to a steady state within a few
// thousand tasks.
func TestLargeWorkflowConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("large workflow test skipped in -short mode")
	}
	aweAt := func(n int) float64 {
		w, err := dynalloc.GenerateWorkflow("bimodal", n, 42)
		if err != nil {
			t.Fatal(err)
		}
		pol, err := dynalloc.NewAllocator(dynalloc.ExhaustiveBucketing, dynalloc.AllocatorConfig{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := dynalloc.SimulateSequential(w, pol, dynalloc.RampEarly)
		if err != nil {
			t.Fatal(err)
		}
		return res.Acc.AWE(dynalloc.Memory)
	}
	small := aweAt(1000)
	large := aweAt(12000)
	if large < small-0.05 {
		t.Errorf("12000-task AWE %.3f fell more than 5%% below 1000-task AWE %.3f", large, small)
	}
}

func TestPublicAPIFlowAndData(t *testing.T) {
	alloc, err := dynalloc.NewAllocator(dynalloc.GreedyBucketing, dynalloc.AllocatorConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	f := dynalloc.NewFlow(dynalloc.NewLocalExecutor(alloc, dynalloc.RampEarly))
	for i := 0; i < 15; i++ {
		f.Submit("api", dynalloc.Task{Consumption: dynalloc.NewVector(1, 300, 50, 10)})
	}
	if got := len(f.WaitAll()); got != 15 {
		t.Fatalf("outcomes = %d", got)
	}
	if f.Metrics().AWE(dynalloc.Memory) <= 0 {
		t.Error("flow metrics empty")
	}

	w, err := dynalloc.GenerateWorkflow("colmena", 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	layer := dynalloc.NewDataLayer()
	dynalloc.AttachData(layer, w, 5)
	if layer.InputMB(1) <= 0 {
		t.Error("data layer empty after AttachData")
	}
	res, err := dynalloc.Simulate(dynalloc.SimConfig{
		Workflow: w,
		Policy:   dynalloc.NewOracle(w),
		Pool:     dynalloc.CondorPool(60, 0.3, 20),
		Place:    dynalloc.PlaceLocality,
		Data:     layer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != w.Len() {
		t.Fatalf("completed %d tasks", len(res.Outcomes))
	}

	p := dynalloc.PerturbWorkflow(w, dynalloc.Perturbation{Jitter: 0.05}, 6)
	if p.Len() != w.Len() {
		t.Error("perturbation changed task count")
	}
}

func TestPublicAPIExperiments(t *testing.T) {
	opts := dynalloc.ExperimentOptions{
		Seed:       1,
		Tasks:      40,
		Workloads:  []string{"uniform"},
		Algorithms: []dynalloc.AlgorithmName{dynalloc.MaxSeen, dynalloc.GreedyBucketing},
	}
	cells, err := dynalloc.ReproduceGrid(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("%d cells", len(cells))
	}
	if len(dynalloc.Figure5(cells, opts)) != 3 {
		t.Error("Figure5 should emit one table per kind")
	}
	if len(dynalloc.Figure6(cells, opts)) != 3 {
		t.Error("Figure6 should emit one table per kind")
	}
}

func TestPublicAPIContextAndOptions(t *testing.T) {
	// The context entry point, in parallel with a progress callback, must
	// agree with the sequential one.
	opts := dynalloc.ExperimentOptions{
		Seed:       9,
		Tasks:      40,
		Workloads:  []string{"uniform"},
		Algorithms: []dynalloc.AlgorithmName{dynalloc.MaxSeen},
	}
	want, err := dynalloc.ReproduceGrid(opts)
	if err != nil {
		t.Fatal(err)
	}
	var progressed int
	parallel := opts
	parallel.Parallelism = 2
	parallel.Progress = func(dynalloc.ExperimentProgress) { progressed++ }
	got, err := dynalloc.ReproduceGridContext(context.Background(), parallel)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || got[0].Makespan != want[0].Makespan ||
		fmt.Sprintf("%#v", got[0].Summary) != fmt.Sprintf("%#v", want[0].Summary) {
		t.Error("the context grid diverged from the sequential grid")
	}
	if progressed != len(got) {
		t.Errorf("progress fired %d times for %d cells", progressed, len(got))
	}
}

// TestPublicAPIPlacements runs a small simulation under each capacity
// placement and refuses one outside the four.
func TestPublicAPIPlacements(t *testing.T) {
	w, err := dynalloc.GenerateWorkflow("bimodal", 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	run := func(place dynalloc.Placement) (*dynalloc.Result, error) {
		return dynalloc.Simulate(dynalloc.SimConfig{
			Workflow: w,
			Policy:   dynalloc.NewOracle(w),
			Pool:     dynalloc.StaticPool(3),
			Place:    place,
		})
	}
	for _, place := range []dynalloc.Placement{dynalloc.PlaceFirstFit, dynalloc.PlaceWorstFit, dynalloc.PlaceBestFit} {
		res, err := run(place)
		if err != nil {
			t.Fatalf("%s: %v", place, err)
		}
		if len(res.Outcomes) != w.Len() {
			t.Errorf("%s: completed %d of %d tasks", place, len(res.Outcomes), w.Len())
		}
	}
	if _, err := run(dynalloc.Placement(99)); !errors.Is(err, dynalloc.ErrUnknownPlacement) {
		t.Errorf("Simulate under Placement(99) err = %v, want ErrUnknownPlacement", err)
	}
}

func TestPublicAPISentinelErrors(t *testing.T) {
	if _, err := dynalloc.GenerateWorkflow("bogus", 10, 1); !errors.Is(err, dynalloc.ErrUnknownWorkflow) {
		t.Errorf("GenerateWorkflow err = %v, want ErrUnknownWorkflow", err)
	}
	if _, err := dynalloc.NewAllocator("bogus", dynalloc.AllocatorConfig{}); !errors.Is(err, dynalloc.ErrUnknownAlgorithm) {
		t.Errorf("NewAllocator err = %v, want ErrUnknownAlgorithm", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w, err := dynalloc.GenerateWorkflow("normal", 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = dynalloc.SimulateContext(ctx, dynalloc.SimConfig{
		Workflow: w,
		Policy:   dynalloc.NewOracle(w),
		Pool:     dynalloc.StaticPool(4),
	})
	if !errors.Is(err, dynalloc.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("SimulateContext err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if _, err := dynalloc.ReproduceGridContext(ctx, dynalloc.ExperimentOptions{Tasks: 20}); !errors.Is(err, dynalloc.ErrCanceled) {
		t.Errorf("ReproduceGridContext err = %v, want ErrCanceled", err)
	}
}

// TestPublicAPIStreaming drives the facade's lazy-workload path end to end:
// a Source with a submit window, per-outcome streaming instead of a retained
// slice, and per-category reservoir metrics — the million-task API at a
// test-sized scale.
func TestPublicAPIStreaming(t *testing.T) {
	alloc := func() dynalloc.Policy {
		a, err := dynalloc.NewAllocator(dynalloc.MaxSeen, dynalloc.AllocatorConfig{Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	w, err := dynalloc.GenerateWorkflow("bimodal", 300, 8)
	if err != nil {
		t.Fatal(err)
	}
	retained, err := dynalloc.Simulate(dynalloc.SimConfig{
		Workflow: w, Policy: alloc(), Pool: dynalloc.StaticPool(6),
	})
	if err != nil {
		t.Fatal(err)
	}

	src, err := dynalloc.GenerateWorkflowSource("bimodal", 300, 8)
	if err != nil {
		t.Fatal(err)
	}
	cats := dynalloc.NewCategoryMetrics(32, 4)
	streamed := 0
	res, err := dynalloc.Simulate(dynalloc.SimConfig{
		Source:     dynalloc.WithSubmitWindow(src, 64),
		Policy:     alloc(),
		Pool:       dynalloc.StaticPool(6),
		Categories: cats,
		OnOutcome:  func(o *dynalloc.TaskOutcome) { streamed++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcomes != nil {
		t.Error("streaming run retained outcomes")
	}
	if streamed != 300 || res.Acc.Tasks() != 300 {
		t.Errorf("streamed %d outcomes, accumulated %d", streamed, res.Acc.Tasks())
	}
	if res.PeakWindow == 0 || res.PeakWindow >= 300 {
		t.Errorf("peak window = %d, want windowed (0, 300)", res.PeakWindow)
	}
	if got := cats.Categories(); len(got) != 1 || got[0] != "bimodal" || cats.Tasks() != 300 {
		t.Errorf("category metrics = %v (%d tasks)", cats.Categories(), cats.Tasks())
	}
	// The submit window reorders nothing on a static pool: aggregates match
	// the retained run exactly.
	if res.Acc != retained.Acc {
		t.Errorf("streaming aggregates diverged:\n%+v\nvs\n%+v", res.Summary(), retained.Summary())
	}

	if _, err := dynalloc.GenerateWorkflowSource("bogus", 10, 1); !errors.Is(err, dynalloc.ErrUnknownWorkflow) {
		t.Errorf("GenerateWorkflowSource err = %v, want ErrUnknownWorkflow", err)
	}
}
