package wq

import (
	"context"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"dynalloc/internal/metrics"
	"dynalloc/internal/resources"
	"dynalloc/internal/sim"
)

// blackHoleWorker registers and accepts frames but never answers — neither
// results nor pongs — the hung-worker failure mode the heartbeat sweeper
// exists for.
func blackHoleWorker(t *testing.T, ctx context.Context, addr string) {
	t.Helper()
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return
	}
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	// Not writeFrames: this is not the test's goroutine, and a write that
	// fails because the test is over is no failure.
	if _, err := conn.Write(encodeFrames(t, &Message{Type: MsgRegister, Capacity: resources.PaperWorker()})); err != nil {
		return
	}
	_, _ = io.Copy(io.Discard, conn) // swallow every frame silently
}

func TestTaskTimeoutReapsHungWorker(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	w := quickWorkflow(12, 7)
	m := NewManager(sim.NewOracle(w), WithHeartbeat(125*time.Millisecond, 500*time.Millisecond))
	addr, err := m.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// The black hole connects first and absorbs the initial dispatches.
	go blackHoleWorker(t, ctx, addr)
	waitFor(t, "the black hole's registration", func() bool { return m.Workers() == 1 })

	// A healthy worker joins; after the sweeper declares the black hole
	// lost, the stolen tasks must be requeued onto it and the workflow must
	// still complete.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = RunWorker(ctx, addr, WorkerConfig{})
	}()
	defer wg.Wait()
	defer m.Close()

	res, err := m.RunWorkflow(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 12 {
		t.Fatalf("%d outcomes", len(res.Outcomes))
	}
	// The black hole held real dispatches, so real eviction attempts must
	// have been recorded when the sweeper reclaimed them.
	evicted := 0
	for _, o := range res.Outcomes {
		for _, a := range o.Attempts {
			if a.Status == metrics.Evicted {
				evicted++
			}
		}
	}
	if evicted == 0 {
		t.Error("no eviction attempt recorded despite the hung worker")
	}
	if res.Acc.Evictions() != evicted {
		t.Errorf("accumulator evictions = %d, want %d", res.Acc.Evictions(), evicted)
	}
	s := m.Stats()
	if s.HeartbeatTimeouts == 0 {
		t.Error("hung worker was not reclaimed by a heartbeat timeout")
	}
	if s.Evictions != evicted {
		t.Errorf("stats evictions = %d, want %d", s.Evictions, evicted)
	}
}

// TestCompletedTaskNeverReaped is the regression for the old per-dispatch
// watchdog's TOCTOU: tasks run much longer than the heartbeat timeout on a
// healthy (pong-answering) worker, and nothing may be reaped.
func TestCompletedTaskNeverReaped(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	w := quickWorkflow(6, 8)
	for i := range w.Tasks {
		// 1000 virtual seconds at 1e-3 scale = 1 s per task, well past the
		// heartbeat timeout below.
		w.Tasks[i].Consumption = w.Tasks[i].Consumption.With(resources.Time, 1000)
	}
	m := NewManager(sim.NewOracle(w), WithHeartbeat(50*time.Millisecond, 400*time.Millisecond))
	addr, err := m.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wg := startWorkers(t, ctx, m, addr, 2, WorkerConfig{TimeScale: 1e-3})
	defer wg.Wait()
	defer m.Close()

	res, err := m.RunWorkflow(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Acc.Evictions(); got != 0 {
		t.Errorf("healthy workers suffered %d evictions", got)
	}
	s := m.Stats()
	if s.HeartbeatTimeouts != 0 {
		t.Errorf("heartbeat timeouts = %d on responsive workers", s.HeartbeatTimeouts)
	}
	if m.Workers() != 2 {
		t.Errorf("workers = %d, want 2 still connected", m.Workers())
	}
}

// TestHeartbeatDisconnectsSilentWorker: even with no tasks at all, a worker
// that never answers pings is dropped from the pool.
func TestHeartbeatDisconnectsSilentWorker(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	m := NewManager(nil, WithHeartbeat(20*time.Millisecond, 100*time.Millisecond))
	addr, err := m.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	go blackHoleWorker(t, ctx, addr)
	waitFor(t, "the silent worker's registration", func() bool { return m.Workers() == 1 })
	waitFor(t, "the heartbeat timeout to drop the silent worker", func() bool { return m.Workers() == 0 })
	if s := m.Stats(); s.HeartbeatTimeouts != 1 {
		t.Errorf("heartbeat timeouts = %d, want 1", s.HeartbeatTimeouts)
	}
}

func TestHeartbeatOptions(t *testing.T) {
	m := NewManager(nil)
	if m.hbInterval != 0 {
		t.Error("heartbeats should be disabled by default")
	}
	m2 := NewManager(nil, WithHeartbeat(250*time.Millisecond, time.Second))
	if m2.hbTimeout != time.Second || m2.hbInterval != 250*time.Millisecond {
		t.Errorf("explicit heartbeat: interval=%v timeout=%v", m2.hbInterval, m2.hbTimeout)
	}
	m3 := NewManager(nil, WithHeartbeat(100*time.Millisecond, 0))
	if m3.hbTimeout != 400*time.Millisecond {
		t.Errorf("default heartbeat timeout = %v, want 4x interval", m3.hbTimeout)
	}
	m4 := NewManager(nil, WithRetryLimit(3), WithDrainTimeout(time.Minute))
	if m4.sched.RetryLimit != 3 || m4.drainTimeout != time.Minute {
		t.Error("retry limit / drain timeout options not applied")
	}
}
