package wq

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"dynalloc/internal/allocator"
	"dynalloc/internal/resources"
	"dynalloc/internal/runlog"
	"dynalloc/internal/sim"
)

// A worker lost mid-run emits EventWorkerLost (the churn half of the
// replayable trace), and every outcome carries manager-clock submit/done
// times.
func TestWorkerLostEventAndTraceTimes(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	w := quickWorkflow(30, 5)
	for i := range w.Tasks {
		w.Tasks[i].Consumption = w.Tasks[i].Consumption.With(resources.Time, 200)
	}

	var mu sync.Mutex
	var events []Event
	tracer := FuncTracer(func(ev Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})
	m := NewManager(sim.NewOracle(w), WithTracer(tracer))
	addr, err := m.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	doomedCtx, killWorker := context.WithCancel(ctx)
	go RunWorker(doomedCtx, addr, WorkerConfig{TimeScale: 1e-3})
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

	mu.Lock()
	lost := 0
	for _, ev := range events {
		if ev.Type == EventWorkerLost {
			lost++
			if ev.WorkerID < 0 {
				t.Errorf("worker-lost event without a worker ID: %+v", ev)
			}
		}
	}
	mu.Unlock()
	if lost != 1 {
		t.Errorf("worker-lost events = %d, want 1 (one worker was killed mid-run)", lost)
	}

	for _, o := range res.Outcomes {
		if o.DoneTime <= 0 {
			t.Fatalf("task %d has no done time", o.TaskID)
		}
		if o.DoneTime < o.SubmitTime {
			t.Fatalf("task %d done at %v before submit at %v", o.TaskID, o.DoneTime, o.SubmitTime)
		}
	}
}

// The tracer's flush policy: after runlogFlushEvery events the buffered log
// is pushed to the underlying writer, so a run killed before Finish still
// leaves its timeline on disk (minus at most the tail since the last
// flush).
func TestRunlogTracerFlushPolicy(t *testing.T) {
	var buf bytes.Buffer
	lw, err := runlog.NewWriter(&buf, runlog.Header{Workload: "w", Algorithm: "a"})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewRunlogTracer(lw)
	now := time.Now()
	for i := 0; i < runlogFlushEvery; i++ {
		tr.Trace(Event{Time: now, Type: EventDispatch, TaskID: i, WorkerID: 0})
	}
	// The underlying bufio.Writer drains full 4 KiB chunks on its own as it
	// fills, which can leave a partial JSON line at the tail; the policy's
	// explicit Flush at the event-count threshold is what guarantees the
	// written prefix is line-aligned and fully parseable without Finish.
	log, err := runlog.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Events) != runlogFlushEvery {
		t.Errorf("%d events survived the flush, want %d", len(log.Events), runlogFlushEvery)
	}
}

// A live run's log carries enough of the churn timeline for the replay
// layer to reconstruct a scripted pool: worker-join (and worker-lost, when
// churn occurred) events derive an arrival schedule.
func TestLiveTraceDerivesScriptedPool(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var buf bytes.Buffer
	lw, err := runlog.NewWriter(&buf, runlog.Header{
		Workload: "quick", Algorithm: "exhaustive-bucketing", Seed: 13,
		Driver: runlog.DriverWQ,
	})
	if err != nil {
		t.Fatal(err)
	}
	pol := allocator.MustNew(allocator.Exhaustive, allocator.Config{Seed: 13})
	m := NewManager(pol, WithTracer(NewRunlogTracer(lw)))
	addr, err := m.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wg := startWorkers(t, ctx, m, addr, 2, WorkerConfig{})
	defer wg.Wait()

	res, err := m.RunWorkflow(ctx, quickWorkflow(15, 13))
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	if err := lw.Finish(res); err != nil {
		t.Fatal(err)
	}

	log, err := runlog.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := runlog.ScriptedPool(log)
	if err != nil {
		t.Fatalf("live trace must derive a scripted pool: %v", err)
	}
	arrivals := pool.Schedule(0)
	if len(arrivals) != 2 {
		t.Fatalf("%d scripted arrivals, want 2 (one per joined worker)", len(arrivals))
	}
	for _, a := range arrivals {
		if a.Lifetime != 0 {
			t.Errorf("worker released by Close got lifetime %v, want 0 (never evicted)", a.Lifetime)
		}
	}
}
