package wq

import (
	"context"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynalloc/internal/allocator"
	"dynalloc/internal/resources"
	"dynalloc/internal/workflow"
)

// This file is the loopback transport benchmark harness for the live engine:
// manager and workers talk over in-memory buffered pipes, so the numbers
// measure the engine itself (frame codec, dispatch locking, flush policy)
// rather than kernel TCP. Unlike net.Pipe — whose writes rendezvous with the
// reader and would serialize both sides — loopPipe buffers writes, so flush
// coalescing behaves as it does on a real socket.

// loopBuf is one direction of an in-memory connection: an append buffer with
// blocking reads.
type loopBuf struct {
	mu     sync.Mutex
	cond   *sync.Cond
	data   []byte
	off    int
	closed bool
}

func newLoopBuf() *loopBuf {
	b := &loopBuf{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *loopBuf) read(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.off == len(b.data) && !b.closed {
		b.cond.Wait()
	}
	if b.off == len(b.data) {
		return 0, io.EOF
	}
	n := copy(p, b.data[b.off:])
	b.off += n
	if b.off == len(b.data) {
		// Whole buffer consumed: recycle the storage instead of growing.
		b.data = b.data[:0]
		b.off = 0
	}
	return n, nil
}

func (b *loopBuf) write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return 0, io.ErrClosedPipe
	}
	b.data = append(b.data, p...)
	b.cond.Signal()
	return len(p), nil
}

func (b *loopBuf) close() {
	b.mu.Lock()
	b.closed = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// loopConn is one endpoint of a loopback pipe.
type loopConn struct {
	rd, wr *loopBuf
}

func loopPipe() (a, b net.Conn) {
	x, y := newLoopBuf(), newLoopBuf()
	return &loopConn{rd: x, wr: y}, &loopConn{rd: y, wr: x}
}

func (c *loopConn) Read(p []byte) (int, error)  { return c.rd.read(p) }
func (c *loopConn) Write(p []byte) (int, error) { return c.wr.write(p) }

func (c *loopConn) Close() error {
	c.rd.close()
	c.wr.close()
	return nil
}

type loopAddr struct{}

func (loopAddr) Network() string { return "loop" }
func (loopAddr) String() string  { return "loop" }

func (c *loopConn) LocalAddr() net.Addr              { return loopAddr{} }
func (c *loopConn) RemoteAddr() net.Addr             { return loopAddr{} }
func (c *loopConn) SetDeadline(time.Time) error      { return nil }
func (c *loopConn) SetReadDeadline(time.Time) error  { return nil }
func (c *loopConn) SetWriteDeadline(time.Time) error { return nil }

// benchPolicy is a fixed-allocation policy: the benchmarks measure the wire
// engine, not prediction, so the policy must cost (and allocate) nothing.
type benchPolicy struct{ alloc resources.Vector }

func (p benchPolicy) Allocate(string, int) resources.Vector { return p.alloc }
func (p benchPolicy) Retry(_ string, _ int, prev resources.Vector, _ []resources.Kind) resources.Vector {
	return prev.Scale(2)
}
func (p benchPolicy) Observe(string, int, resources.Vector, float64) {}
func (p benchPolicy) Name() string                                   { return "bench-fixed" }

// benchEngine wires `workers` loopback workers into a fresh manager around
// the fixed-allocation policy and waits until they are all registered.
func benchEngine(b *testing.B, workers int) (*Manager, context.CancelFunc) {
	b.Helper()
	return benchEngineWith(b, benchPolicy{alloc: resources.New(1, 100, 100, 3600)},
		resources.New(64, 1<<20, 1<<20, 3600), workers)
}

// benchEngineWith is benchEngine for a given policy and worker shape.
func benchEngineWith(b *testing.B, policy allocator.Policy, capacity resources.Vector, workers int) (*Manager, context.CancelFunc) {
	b.Helper()
	m := NewManager(policy)
	ctx, cancel := context.WithCancel(context.Background())
	cfg := WorkerConfig{Capacity: capacity, TimeScale: 1e-12}
	for i := 0; i < workers; i++ {
		mgrSide, wkrSide := loopPipe()
		go m.serveWorker(mgrSide)
		go func() { _ = runWorkerConn(ctx, wkrSide, cfg) }()
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.Workers() < workers {
		if time.Now().After(deadline) {
			b.Fatalf("only %d of %d workers registered", m.Workers(), workers)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return m, cancel
}

var benchTask = workflow.Task{
	Category:    "bench",
	Consumption: resources.New(0.5, 50, 50, 1),
}

// benchWQDispatch measures sustained dispatch/result round trips: `depth`
// driver goroutines keep that many tasks in flight through Submit, every
// task fits its first allocation, and the workers' virtual execution sleeps
// zero wall time — so the per-op cost is one full manager->worker->manager
// protocol round trip including dispatch-time allocation and bookkeeping.
func benchWQDispatch(b *testing.B, workers int) {
	m, cancel := benchEngine(b, workers)
	defer cancel()
	defer m.Close()
	benchDrive(b, m, 8*workers)
}

// benchDrive keeps `depth` copies of benchTask in flight through Submit until
// b.N have completed, and reports the throughput.
func benchDrive(b *testing.B, m *Manager, depth int) {
	benchDriveTasks(b, m, depth, func(int64) workflow.Task { return benchTask })
}

// benchDriveTasks is benchDrive over task(n), n counting down from b.N-1.
func benchDriveTasks(b *testing.B, m *Manager, depth int, task func(n int64) workflow.Task) {
	var remaining atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	remaining.Store(int64(b.N))
	var wg sync.WaitGroup
	for g := 0; g < depth; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := remaining.Add(-1); n >= 0; n = remaining.Add(-1) {
				<-m.Submit(task(n))
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tasks/sec")
}

// BenchmarkWQDispatch1Workers is the single-worker protocol floor.
func BenchmarkWQDispatch1Workers(b *testing.B) { benchWQDispatch(b, 1) }

// BenchmarkWQDispatch8Workers is the headline live-engine number recorded in
// BENCH_wq.json: 8 concurrent workers, 64 tasks in flight.
func BenchmarkWQDispatch8Workers(b *testing.B) { benchWQDispatch(b, 8) }

// BenchmarkWQDispatch64Workers stresses the dispatch scan and the result
// intake under a wide worker fleet.
func BenchmarkWQDispatch64Workers(b *testing.B) { benchWQDispatch(b, 64) }

// BenchmarkWQDeepQueue256 is the queue-depth scenario the dispatch benchmarks
// above never reach: a real max-seen allocator, 256 tasks in flight on two
// workers that hold four steady-state allocations each, so a dispatch pass
// finds up to ~248 queued first attempts of one category behind a full fleet.
// How deep the queue gets is the scheduler's doing, so the benchmark reports
// it: queued/pass is the mean ready-queue length a driver finds as it submits.
// That is not what a pass walks: a pass ends at the category's first miss,
// so it resolves the keys it places plus one (sched's
// BenchmarkDispatchDeepQueue measures that pass alone). Read ns/op beside
// queued/pass, never alone — before the flusher yielded, the 256 drivers
// starved behind manager<->worker hand-offs on one P and the queue held ~3
// entries (DESIGN.md §16).
func BenchmarkWQDeepQueue256(b *testing.B) {
	capacity := resources.New(4, 1000, 1000, 3600)
	pol := allocator.MustNew(allocator.MaxSeen, allocator.Config{Capacity: capacity, Seed: 1})
	// Leave exploratory mode before the clock starts: max-seen explores
	// with a whole worker, one task at a time.
	for task := 1; task <= 10; task++ {
		pol.Observe(benchTask.Category, task, benchTask.Consumption, benchTask.Runtime())
	}
	m, cancel := benchEngineWith(b, pol, capacity, 2)
	defer cancel()
	defer m.Close()
	var queued atomic.Int64
	benchDriveTasks(b, m, 256, func(int64) workflow.Task {
		m.mu.Lock()
		queued.Add(int64(m.sched.Ready.Len()))
		m.mu.Unlock()
		return benchTask
	})
	b.ReportMetric(float64(queued.Load())/float64(b.N), "queued/pass")
}

// BenchmarkWQGreedyBurst is the recompute-bound scenario: a real
// greedy-bucketing allocator whose records grow with every completion,
// bimodal tasks, 32 in flight on two paper workers that run about half of
// them, so results come back in bursts and every dispatch pass re-predicts a
// standing queue. recomputes/op is the bucketing recomputes (all kinds) per
// completed task: 3 when every Observe is followed by a pass, 3/k when the
// manager observes a burst of k before the first of its passes. The bursts
// are the worker's doing: executors that finish together share one write
// (frameWriter.send), which the manager's reader takes in as one read.
func BenchmarkWQGreedyBurst(b *testing.B) {
	wf, err := workflow.Synthetic("bimodal", 4096, 1)
	if err != nil {
		b.Fatal(err)
	}
	capacity := resources.PaperWorker()
	pol := allocator.MustNew(allocator.Greedy, allocator.Config{Capacity: capacity, Seed: 1})
	m, cancel := benchEngineWith(b, pol, capacity, 2)
	defer cancel()
	defer m.Close()
	benchDriveTasks(b, m, 32, func(n int64) workflow.Task { return wf.Tasks[n%int64(len(wf.Tasks))] })
	recomputes := 0
	for _, kinds := range pol.BucketStats() {
		for _, s := range kinds {
			recomputes += s.Recomputes
		}
	}
	b.ReportMetric(float64(recomputes)/float64(b.N), "recomputes/op")
}

// BenchmarkWQChurn8Workers overlays worker churn on the dispatch stream: one
// of the 8 workers is killed (and replaced) every churnEvery completed
// tasks, so the run continuously exercises the eviction/requeue path and the
// alive-chain maintenance alongside steady-state dispatch.
func BenchmarkWQChurn8Workers(b *testing.B) {
	const workers = 8
	const churnEvery = 2048
	m, cancel := benchEngine(b, workers)
	defer cancel()
	defer m.Close()
	ctx, stopSpawns := context.WithCancel(context.Background())
	defer stopSpawns()

	// victims holds one evictable loopback worker at a time; the driver that
	// crosses a churn boundary kills it and spawns a replacement.
	capacity := resources.New(64, 1<<20, 1<<20, 3600)
	cfg := WorkerConfig{Capacity: capacity, TimeScale: 1e-12}
	var victimMu sync.Mutex
	var victim net.Conn
	spawnVictim := func() {
		mgrSide, wkrSide := loopPipe()
		go m.serveWorker(mgrSide)
		go func() { _ = runWorkerConn(ctx, wkrSide, cfg) }()
		victimMu.Lock()
		victim = wkrSide
		victimMu.Unlock()
	}
	spawnVictim()

	depth := 8 * workers
	var completed atomic.Int64
	var remaining atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	remaining.Store(int64(b.N))
	var wg sync.WaitGroup
	for g := 0; g < depth; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for remaining.Add(-1) >= 0 {
				<-m.Submit(benchTask)
				if n := completed.Add(1); n%churnEvery == 0 {
					victimMu.Lock()
					old := victim
					victimMu.Unlock()
					old.Close()
					spawnVictim()
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tasks/sec")
}
