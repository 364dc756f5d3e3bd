package wire_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"dynalloc/internal/resources"
	"dynalloc/internal/serve"
	"dynalloc/internal/workflow"
	"dynalloc/internal/wq"
)

// fixed answers every task with one small allocation.
type fixed struct{}

func (fixed) Allocate(string, int) resources.Vector { return resources.New(1, 100, 100, 10) }
func (fixed) Retry(_ string, _ int, prev resources.Vector, _ []resources.Kind) resources.Vector {
	return prev.Scale(2)
}
func (fixed) Observe(string, int, resources.Vector, float64) {}
func (fixed) Name() string                                   { return "fixed" }

// TestNoWriterOutlivesItsConnection runs every end of both protocols over
// TCP — the wq manager and its workers, the serve server and its clients —
// and ends each connection both ways: by Close on its own end and by its
// peer dropping it. Every end owns an outbox writer goroutine per
// connection; once every end is closed the goroutine count is back at its
// baseline.
func TestNoWriterOutlivesItsConnection(t *testing.T) {
	baseline := runtime.NumGoroutine()

	// wq: one worker runs tasks until the manager's Close shuts it down;
	// another drops its connection when its context is cancelled.
	m := wq.NewManager(fixed{})
	addr, err := m.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := wq.WorkerConfig{TimeScale: 1e-12}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stays, drops := make(chan error, 1), make(chan error, 1)
	go func() { stays <- wq.RunWorker(context.Background(), addr, cfg) }()
	go func() { drops <- wq.RunWorker(ctx, addr, cfg) }()
	for i := 0; i < 50; i++ {
		if o := <-m.Submit(workflow.Task{Category: "c", Consumption: resources.New(1, 10, 10, 1)}); len(o.Attempts) == 0 {
			t.Fatalf("task %d: no attempt", i)
		}
	}
	for m.Workers() < 2 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-drops; err != nil {
		t.Errorf("cancelled worker: %v", err)
	}
	m.Close()
	if err := <-stays; err != nil {
		t.Errorf("worker shut down by the manager: %v", err)
	}

	// serve: one client closes itself; the other is dropped by the server's
	// Close and is never closed.
	s := serve.NewServer(serve.WithServerDrainTimeout(100 * time.Millisecond))
	saddr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	for _, closes := range []bool{true, false} {
		c, err := serve.Dial(saddr, "t", "", 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Allocate("c", 1); err != nil {
			t.Fatal(err)
		}
		if closes {
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.Close()

	var now int
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if now = runtime.NumGoroutine(); now <= baseline || time.Now().After(deadline) {
			break
		}
	}
	if now > baseline {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines 5 s after every end closed, baseline %d:\n%s", now, baseline, buf[:runtime.Stack(buf, true)])
	}
}
