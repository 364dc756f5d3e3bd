package wq

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynalloc/internal/metrics"
	"dynalloc/internal/resources"
	"dynalloc/internal/workflow"
)

// stressPolicy under-allocates the "tight" category so its first attempt
// always exhausts and must escalate through Retry, exercising the
// exceeded-kinds wire path under load.
type stressPolicy struct{}

func (stressPolicy) Allocate(category string, _ int) resources.Vector {
	if category == "tight" {
		return resources.New(1, 30, 100, 3600)
	}
	return resources.New(1, 100, 100, 3600)
}
func (stressPolicy) Retry(_ string, _ int, prev resources.Vector, _ []resources.Kind) resources.Vector {
	return prev.Scale(2)
}
func (stressPolicy) Observe(string, int, resources.Vector, float64) {}
func (stressPolicy) Name() string                                   { return "stress" }

// TestPipelinedStress drives the full live engine the way the benchmarks do,
// but with every failure mode at once: a dozen workers over real TCP, short
// heartbeats so pings interleave with results on the same connections,
// under-allocated tasks exhausting and escalating mid-stream, and a churn
// goroutine killing and replacing workers the whole time. Every task must
// still reach success (no retry limit) and the counters must reconcile.
func TestPipelinedStress(t *testing.T) {
	const (
		workers = 12
		total   = 1500
		submits = 16
	)
	m := NewManager(stressPolicy{}, WithHeartbeat(5*time.Millisecond, 250*time.Millisecond))
	addr, err := m.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := WorkerConfig{Capacity: resources.New(8, 1000, 1000, 3600), TimeScale: 1e-6}

	// Stable fleet plus a churn slot: cancels[i] kills worker i's connection.
	var cancels [workers]context.CancelFunc
	var cancelsMu sync.Mutex
	spawn := func(slot int) {
		wctx, wcancel := context.WithCancel(ctx)
		cancelsMu.Lock()
		cancels[slot] = wcancel
		cancelsMu.Unlock()
		go func() { _ = RunWorker(wctx, addr, cfg) }()
	}
	for i := 0; i < workers; i++ {
		spawn(i)
	}
	waitFor(t, fmt.Sprintf("%d workers to register", workers), func() bool { return m.Workers() == workers })

	// Churn: kill and replace one worker every few milliseconds for the whole
	// run, so evictions, requeues, and re-registrations overlap the stream.
	churnDone := make(chan struct{})
	var churned atomic.Int64
	go func() {
		defer close(churnDone)
		slot := 0
		for {
			select {
			case <-ctx.Done():
				return
			case <-time.After(3 * time.Millisecond):
			}
			cancelsMu.Lock()
			kill := cancels[slot]
			cancelsMu.Unlock()
			kill()
			churned.Add(1)
			spawn(slot)
			slot = (slot + 1) % workers
		}
	}()

	// Alternate easy and tight tasks from several submitters.
	var seq atomic.Int64
	var wg sync.WaitGroup
	outcomes := make(chan metrics.TaskOutcome, total)
	for g := 0; g < submits; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := seq.Add(1)
				if n > total {
					return
				}
				task := workflow.Task{Category: "easy", Consumption: resources.New(0.5, 50, 50, 1)}
				if n%3 == 0 {
					task.Category = "tight"
				}
				outcomes <- <-m.Submit(task)
			}
		}()
	}
	wg.Wait()
	cancel() // stop churn before inspecting counters
	<-churnDone

	close(outcomes)
	succ, tight := 0, 0
	for out := range outcomes {
		last := out.Attempts[len(out.Attempts)-1]
		if last.Status != metrics.Success {
			t.Fatalf("task %d ended %v after %d attempts", out.TaskID, last.Status, len(out.Attempts))
		}
		succ++
		if out.Category == "tight" {
			tight++
		}
	}
	if succ != total {
		t.Fatalf("got %d outcomes, want %d", succ, total)
	}

	st := m.Stats()
	if st.Successes != total {
		t.Errorf("Successes = %d, want %d", st.Successes, total)
	}
	// Every tight task needs at least one exhausted attempt before its
	// allocation covers its consumption.
	if st.Exhaustions < tight {
		t.Errorf("Exhaustions = %d, want >= %d tight tasks", st.Exhaustions, tight)
	}
	if churned.Load() == 0 {
		t.Error("churn loop never killed a worker")
	}
	if st.DecodeErrors != 0 {
		t.Errorf("DecodeErrors = %d, want 0", st.DecodeErrors)
	}
	// Dispatches and staged frames are counted on the same path; at
	// quiescence every staged frame has been handed to a writer.
	if st.FramesSent != int64(st.Dispatches) {
		t.Errorf("FramesSent = %d, Dispatches = %d; want equal", st.FramesSent, st.Dispatches)
	}
	if st.FlushBatches == 0 || st.FlushBatches > st.FramesSent {
		t.Errorf("FlushBatches = %d out of range (0, %d]", st.FlushBatches, st.FramesSent)
	}
}

// TestLargeFrameRoundTrip pushes the largest task frame there is — a category
// of maxCategory bytes, sixteen times the reader's standing buffer — through
// the full manager->worker->manager loop, and then a category one byte past
// what a task frame can carry: that task fails at Submit, where a frame no
// worker can be sent used to cost every worker it was tried on its connection.
func TestLargeFrameRoundTrip(t *testing.T) {
	m := NewManager(stressPolicy{})
	defer m.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mgrSide, wkrSide := loopPipe()
	go m.srv.ServeConn(mgrSide)
	cfg := WorkerConfig{Capacity: resources.New(8, 1000, 1000, 3600), TimeScale: 1e-9}
	go func() { _ = runWorkerConn(ctx, wkrSide, cfg) }()
	waitFor(t, "worker registration", func() bool { return m.Workers() == 1 })

	big := make([]byte, maxCategory+1)
	for i := range big {
		big[i] = 'a' + byte(i%26)
	}
	out := <-m.Submit(workflow.Task{Category: string(big[1:]), Consumption: resources.New(0.5, 50, 50, 1)})
	if len(out.Attempts) != 1 || out.Attempts[0].Status != metrics.Success {
		t.Fatalf("large-frame task did not succeed in one attempt: %+v", out.Attempts)
	}
	for _, category := range []string{string(big), "not utf-8 \xff"} {
		out = <-m.Submit(workflow.Task{Category: category, Consumption: resources.New(0.5, 50, 50, 1)})
		if len(out.Attempts) != 1 || out.Attempts[0].Status != metrics.Failed {
			t.Errorf("task with an unsendable %d-byte category: attempts %+v, want one Failed", len(category), out.Attempts)
		}
		w := &workflow.Workflow{Tasks: []workflow.Task{{ID: 1, Category: category}}}
		if _, err := m.RunWorkflow(ctx, w); err == nil {
			t.Errorf("RunWorkflow took a task with an unsendable %d-byte category", len(category))
		}
	}
	if got := m.Stats(); got.DecodeErrors != 0 || got.Dispatches != 1 || got.ConnectedWorkers != 1 {
		t.Fatalf("decode errors %d, dispatches %d, connected workers %d; want 0, 1, 1",
			got.DecodeErrors, got.Dispatches, got.ConnectedWorkers)
	}
}

// TestDecodeErrorSurfaced pins the malformed-frame path: garbage on a worker
// connection must bump Stats.DecodeErrors and emit a decode-error trace
// event (instead of silently dropping the connection), both before and after
// registration.
func TestDecodeErrorSurfaced(t *testing.T) {
	traced, events := collectEvents()
	m := NewManager(stressPolicy{}, traced)
	addr, err := m.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Garbage before registration: counted with worker ID -1.
	pre, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(pre, "{not a frame}\n")
	pre.Close()

	// Garbage after a valid registration: counted against the worker.
	post, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	writeFrames(t, post, &Message{Type: MsgRegister, Capacity: resources.New(1, 100, 100, 3600)})
	waitFor(t, "worker registration", func() bool { return m.Workers() == 1 })
	if _, err := post.Write([]byte{0, 0, 0, 0, 0x7f}); err != nil { // a frame of no known type
		t.Fatal(err)
	}
	defer post.Close()

	waitFor(t, "two decode errors", func() bool { return m.Stats().DecodeErrors == 2 })
	var pref, postf bool
	for _, ev := range events() {
		if ev.Type == EventDecodeError {
			if ev.WorkerID == -1 {
				pref = true
			} else {
				postf = true
			}
			if ev.Detail == "" {
				t.Error("decode-error event carries no detail")
			}
		}
	}
	if !pref || !postf {
		t.Errorf("missing decode-error events: pre-register=%v post-register=%v", pref, postf)
	}
}
