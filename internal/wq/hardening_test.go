package wq

import (
	"bytes"
	"context"
	"errors"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"dynalloc/internal/allocator"
	"dynalloc/internal/metrics"
	"dynalloc/internal/resources"
	"dynalloc/internal/runlog"
	"dynalloc/internal/sim"
	"dynalloc/internal/workflow"
)

// fixedPolicy always hands out the same allocation, including on retries —
// the pathological policy that turns an under-allocated task into an
// infinite exhaustion loop unless the retry limit bounds it.
type fixedPolicy struct {
	alloc resources.Vector
}

func (p fixedPolicy) Allocate(string, int) resources.Vector { return p.alloc }
func (p fixedPolicy) Retry(_ string, _ int, _ resources.Vector, _ []resources.Kind) resources.Vector {
	return p.alloc
}
func (p fixedPolicy) Observe(string, int, resources.Vector, float64) {}
func (p fixedPolicy) Name() string                                   { return "fixed" }

var _ allocator.Policy = fixedPolicy{}

func generousPolicy() fixedPolicy {
	return fixedPolicy{alloc: resources.New(2, 2000, 2000, resources.Unlimited)}
}

// TestSubmitRunWorkflowIDCollision is the regression for the task-ID
// collision: a Submit-ted task used to claim ID 1, and a later RunWorkflow
// whose pre-declared tasks also start at ID 1 silently overwrote its state.
// Every registration path now draws from one monotonic counter, so all
// outcomes must survive with distinct IDs.
func TestSubmitRunWorkflowIDCollision(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	m := NewManager(generousPolicy())
	addr, err := m.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wg := startWorkers(t, ctx, addr, 2, WorkerConfig{})
	defer wg.Wait()
	defer m.Close()

	submitted := workflow.Task{
		Category:    "dynamic",
		Consumption: resources.New(1, 500, 100, 10),
	}
	ch := m.Submit(submitted) // claims ID 1

	w := quickWorkflow(5, 9) // declares IDs 1..5, colliding with the submission
	res, err := m.RunWorkflow(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 5 {
		t.Fatalf("%d workflow outcomes", len(res.Outcomes))
	}

	var submittedOutcome metrics.TaskOutcome
	select {
	case submittedOutcome = <-ch:
	case <-ctx.Done():
		t.Fatal("submitted task outcome lost (overwritten by workflow registration)")
	}
	if !submittedOutcome.Succeeded() {
		t.Fatalf("submitted task did not succeed: %+v", submittedOutcome)
	}

	seen := map[int]bool{submittedOutcome.TaskID: true}
	for _, o := range res.Outcomes {
		if seen[o.TaskID] {
			t.Errorf("task ID %d registered twice", o.TaskID)
		}
		seen[o.TaskID] = true
		if !o.Succeeded() {
			t.Errorf("workflow task %d did not succeed", o.TaskID)
		}
	}
}

// TestEvictionRequeueDeterministic: multi-task evictions requeue in
// ascending task-ID order, whatever order the tasks were placed in.
func TestEvictionRequeueDeterministic(t *testing.T) {
	m := NewManager(fixedPolicy{}) // every task fits: the zero vector
	m.mu.Lock()
	w := stageWorker(t, m, resources.PaperWorker())
	for _, id := range []int{7, 3, 5, 11, 2} {
		m.registerTaskLocked(workflow.Task{ID: id}, nil, false)
	}
	m.dispatchLocked()
	m.registerTaskLocked(workflow.Task{ID: 9}, nil, false) // already waiting before the eviction
	m.mu.Unlock()
	m.evict(w)
	want := []int{2, 3, 5, 7, 11, 9}
	if got := queued(m); !slices.Equal(got, want) {
		t.Fatalf("queue = %v, want %v", got, want)
	}
}

// TestRetryLimitFailsTask: a task whose allocation can never fit fails
// permanently after the budget is spent, with a terminal metrics.Failed
// attempt, instead of looping forever.
func TestRetryLimitFailsTask(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const limit = 3
	// 100 MB allocated vs a 500 MB peak: every attempt exhausts.
	pol := fixedPolicy{alloc: resources.New(2, 100, 2000, resources.Unlimited)}
	m := NewManager(pol, WithRetryLimit(limit))
	addr, err := m.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wg := startWorkers(t, ctx, addr, 1, WorkerConfig{Model: sim.RampLinear})
	defer wg.Wait()
	defer m.Close()

	w := &workflow.Workflow{Name: "doomed", Tasks: []workflow.Task{{
		ID:          1,
		Category:    "doomed",
		Consumption: resources.New(1, 500, 100, 10),
	}}}
	res, err := m.RunWorkflow(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 {
		t.Fatalf("result.Failed = %d, want 1", res.Failed)
	}
	o := res.Outcomes[0]
	if o.Succeeded() {
		t.Fatal("doomed task reported success")
	}
	last := o.Attempts[len(o.Attempts)-1]
	if last.Status != metrics.Failed {
		t.Fatalf("last attempt status = %v, want failed", last.Status)
	}
	exhausted := 0
	for _, a := range o.Attempts {
		if a.Status == metrics.Exhausted {
			exhausted++
		}
	}
	if exhausted != limit+1 {
		t.Errorf("exhausted attempts = %d, want %d (limit+1)", exhausted, limit+1)
	}
	if res.Acc.Failures() != 1 {
		t.Errorf("accumulator failures = %d, want 1", res.Acc.Failures())
	}
	if s := res.Summary(); s.Failures != 1 {
		t.Errorf("summary failures = %d, want 1", s.Failures)
	}
	if s := m.Stats(); s.Failures != 1 || s.Exhaustions != exhausted {
		t.Errorf("stats failures=%d exhaustions=%d, want 1/%d", s.Failures, s.Exhaustions, exhausted)
	}
	// A failed task contributes allocation but no consumption.
	if got := res.Acc.AWE(resources.Memory); got != 0 {
		t.Errorf("memory AWE = %v, want 0 for an all-failed run", got)
	}
}

// TestCloseWakesBlockedRunWorkflow: with no workers, a RunWorkflow caller
// parks in cond.Wait; Close must wake it with ErrManagerClosed well before
// its context deadline.
func TestCloseWakesBlockedRunWorkflow(t *testing.T) {
	w := quickWorkflow(5, 10)
	m := NewManager(generousPolicy())
	if _, err := m.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	errc := make(chan error, 1)
	go func() {
		_, err := m.RunWorkflow(ctx, w)
		errc <- err
	}()
	time.Sleep(100 * time.Millisecond)
	m.Close()

	select {
	case err := <-errc:
		if !errors.Is(err, ErrManagerClosed) {
			t.Fatalf("err = %v, want ErrManagerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunWorkflow still blocked after Close")
	}
	if ctx.Err() != nil {
		t.Fatal("sentinel must arrive before the context deadline")
	}
}

// TestDrainUnderLoad: Close during an active run stops dispatching, waits
// for the in-flight results, and then releases the blocked caller.
func TestDrainUnderLoad(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	w := quickWorkflow(30, 11)
	for i := range w.Tasks {
		// Wide, slow tasks: 8 of 16 cores each means only two run per
		// worker, so a backlog necessarily remains when Close lands mid-run.
		w.Tasks[i].Consumption = w.Tasks[i].Consumption.
			With(resources.Time, 200).
			With(resources.Cores, 8)
	}
	m := NewManager(sim.NewOracle(w), WithDrainTimeout(10*time.Second))
	addr, err := m.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wg := startWorkers(t, ctx, addr, 2, WorkerConfig{TimeScale: 1e-3}) // 0.2 s per task
	defer wg.Wait()

	errc := make(chan error, 1)
	go func() {
		_, err := m.RunWorkflow(ctx, w)
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond) // let dispatches land
	m.Close()

	select {
	case err := <-errc:
		if !errors.Is(err, ErrManagerClosed) {
			t.Fatalf("err = %v, want ErrManagerClosed", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("RunWorkflow still blocked after drain")
	}
	s := m.Stats()
	if s.InFlight != 0 {
		t.Errorf("in-flight after drain = %d, want 0", s.InFlight)
	}
	// Drain accepted the in-flight results: every dispatch is accounted for
	// as a success, an exhaustion, or an eviction.
	if s.Dispatches != s.Successes+s.Exhaustions+s.Evictions {
		t.Errorf("dispatches=%d not reconciled: successes=%d exhaustions=%d evictions=%d",
			s.Dispatches, s.Successes, s.Exhaustions, s.Evictions)
	}
}

// TestSubmitAfterClose: a closed manager fails submissions immediately
// instead of parking them on a queue nothing will ever drain.
func TestSubmitAfterClose(t *testing.T) {
	m := NewManager(generousPolicy())
	m.Close()
	select {
	case o := <-m.Submit(workflow.Task{Category: "late", Consumption: resources.New(1, 100, 100, 1)}):
		if len(o.Attempts) != 1 || o.Attempts[0].Status != metrics.Failed {
			t.Fatalf("outcome = %+v, want one failed attempt", o)
		}
	case <-time.After(time.Second):
		t.Fatal("Submit on a closed manager never delivered")
	}
}

// TestStatsReconcileWithResult: the Stats() counters agree with the
// sim.Result the same run produced.
func TestStatsReconcileWithResult(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	pol := allocator.MustNew(allocator.Exhaustive, allocator.Config{Seed: 1})
	m := NewManager(pol)
	addr, err := m.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wg := startWorkers(t, ctx, addr, 3, WorkerConfig{})
	defer wg.Wait()
	defer m.Close()

	w := quickWorkflow(40, 12)
	res, err := m.RunWorkflow(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.Successes != len(res.Outcomes) {
		t.Errorf("successes = %d, want %d", s.Successes, len(res.Outcomes))
	}
	if s.Exhaustions != res.Acc.Retries() {
		t.Errorf("exhaustions = %d, want %d", s.Exhaustions, res.Acc.Retries())
	}
	if s.Evictions != res.Acc.Evictions() {
		t.Errorf("evictions = %d, want %d", s.Evictions, res.Acc.Evictions())
	}
	if s.Failures != res.Failed {
		t.Errorf("failures = %d, want %d", s.Failures, res.Failed)
	}
	if s.Dispatches != res.Acc.Attempts() {
		t.Errorf("dispatches = %d, want %d attempts", s.Dispatches, res.Acc.Attempts())
	}
	if s.PeakWorkers != 3 || s.ConnectedWorkers != 3 {
		t.Errorf("workers peak=%d connected=%d, want 3/3", s.PeakWorkers, s.ConnectedWorkers)
	}
	if s.PeakQueue < len(w.Tasks) {
		t.Errorf("peak queue = %d, want >= %d", s.PeakQueue, len(w.Tasks))
	}
	if len(s.Workers) != 3 {
		t.Fatalf("per-worker stats for %d workers, want 3", len(s.Workers))
	}
	perWorkerDispatched, perWorkerBusy := 0, 0.0
	for _, ws := range s.Workers {
		perWorkerDispatched += ws.Dispatched
		perWorkerBusy += ws.BusySeconds
	}
	if perWorkerDispatched != s.Dispatches {
		t.Errorf("per-worker dispatch sum = %d, want %d", perWorkerDispatched, s.Dispatches)
	}
	if perWorkerBusy <= 0 {
		t.Error("per-worker busy time never accumulated")
	}
}

// TestRunlogTracerReplay: a live run traced into a run log replays through
// runlog.Read/Replay like a simulator log, with the lifecycle events intact
// and consistent with the manager's counters.
func TestRunlogTracerReplay(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var buf bytes.Buffer
	lw, err := runlog.NewWriter(&buf, runlog.Header{Workload: "quick", Algorithm: "exhaustive", Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	pol := allocator.MustNew(allocator.Exhaustive, allocator.Config{Seed: 13})
	m := NewManager(pol, WithTracer(NewRunlogTracer(lw)), WithHeartbeat(50*time.Millisecond, time.Second))
	addr, err := m.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wwg sync.WaitGroup
	wwg.Add(1)
	go func() {
		defer wwg.Done()
		_ = RunWorker(ctx, addr, WorkerConfig{})
	}()
	defer wwg.Wait()

	w := quickWorkflow(20, 13)
	res, err := m.RunWorkflow(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	m.Close() // emit the drain events before the footer
	if err := lw.Finish(res); err != nil {
		t.Fatal(err)
	}

	log, err := runlog.Read(&buf)
	if err != nil {
		t.Fatalf("replaying live run log: %v", err)
	}
	if len(log.Outcomes) != 20 {
		t.Fatalf("%d outcomes in log", len(log.Outcomes))
	}
	acc := runlog.Replay(log)
	for _, k := range resources.AllocatedKinds() {
		if got, want := acc.AWE(k), res.Acc.AWE(k); math.Abs(got-want) > 1e-9 {
			t.Errorf("replayed AWE(%s) = %v, want %v", k, got, want)
		}
	}

	s := m.Stats()
	counts := map[string]int{}
	for _, ev := range log.Events {
		counts[ev.Event]++
	}
	if counts[string(EventDispatch)] != s.Dispatches {
		t.Errorf("dispatch events = %d, want %d", counts[string(EventDispatch)], s.Dispatches)
	}
	if counts[string(EventResult)] != s.Successes+s.Exhaustions {
		t.Errorf("result events = %d, want %d", counts[string(EventResult)], s.Successes+s.Exhaustions)
	}
	if counts[string(EventWorkerJoin)] != 1 {
		t.Errorf("worker-join events = %d, want 1", counts[string(EventWorkerJoin)])
	}
	if counts[string(EventDrainStart)] != 1 || counts[string(EventDrainEnd)] != 1 {
		t.Errorf("drain events = %d/%d, want 1/1",
			counts[string(EventDrainStart)], counts[string(EventDrainEnd)])
	}
	for i := 1; i < len(log.Events); i++ {
		if log.Events[i].TimeNS < log.Events[i-1].TimeNS {
			t.Fatalf("event %d out of order", i)
		}
	}
}

// doublingPolicy starts every task at a fixed vector and doubles the exceeded
// kinds on each retry: deterministic, so a replay repeats the recorded run.
type doublingPolicy struct{ first resources.Vector }

func (p doublingPolicy) Allocate(string, int) resources.Vector { return p.first }
func (p doublingPolicy) Retry(_ string, _ int, prev resources.Vector, exceeded []resources.Kind) resources.Vector {
	for _, k := range exceeded {
		prev = prev.With(k, 2*prev.Get(k))
	}
	return prev
}
func (p doublingPolicy) Observe(string, int, resources.Vector, float64) {}
func (p doublingPolicy) Name() string                                   { return "doubling" }

// TestRunlogReplayAtRetryLimit: cmd/wq-manager writes -retry-limit N into the
// run log header's max_attempts and the replay hands it to the simulator, so
// both must count the same way. A task that succeeded after exactly N
// exhaustions is within the limit live and must be within it on replay (the
// simulator used to allow one exhaustion fewer and abort).
func TestRunlogReplayAtRetryLimit(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const limit = 3
	// 100 MB doubling towards a 500 MB peak: exhausted at 100, 200 and 400.
	pol := doublingPolicy{first: resources.New(2, 100, 2000, resources.Unlimited)}
	var buf bytes.Buffer
	lw, err := runlog.NewWriter(&buf, runlog.Header{
		Workload: "edge", Algorithm: pol.Name(), Driver: runlog.DriverWQ, MaxAttempts: limit,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(pol, WithRetryLimit(limit), WithTracer(NewRunlogTracer(lw)))
	addr, err := m.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wg := startWorkers(t, ctx, addr, 1, WorkerConfig{})
	defer wg.Wait()
	defer m.Close()

	res, err := m.RunWorkflow(ctx, &workflow.Workflow{Name: "edge", Tasks: []workflow.Task{{
		ID: 1, Category: "edge", Consumption: resources.New(1, 500, 100, 10),
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if o := res.Outcomes[0]; !o.Succeeded() || o.Retries() != limit {
		t.Fatalf("live run: succeeded=%v after %d exhaustions, want success after %d", o.Succeeded(), o.Retries(), limit)
	}
	m.Close()
	if err := lw.Finish(res); err != nil {
		t.Fatal(err)
	}

	log, err := runlog.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := runlog.Resimulate(ctx, log, pol)
	if err != nil {
		t.Fatalf("replaying a run that stayed within its retry limit: %v", err)
	}
	if o := replay.Outcomes[0]; !o.Succeeded() || o.Retries() != limit {
		t.Errorf("replay: succeeded=%v after %d exhaustions, want success after %d", o.Succeeded(), o.Retries(), limit)
	}
}
