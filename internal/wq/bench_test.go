package wq

import (
	"context"
	"fmt"
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
func benchEngine(tb testing.TB, workers int) *Manager {
	tb.Helper()
	return benchEngineWith(tb, benchPolicy{alloc: resources.New(1, 100, 100, 3600)},
		resources.New(64, 1<<20, 1<<20, 3600), workers)
}

// benchEngineWith is benchEngine for a given policy and worker shape. The
// manager closes, and its workers stop, when tb's test or benchmark ends.
func benchEngineWith(tb testing.TB, policy allocator.Policy, capacity resources.Vector, workers int) *Manager {
	tb.Helper()
	m := NewManager(policy)
	ctx, cancel := context.WithCancel(context.Background())
	tb.Cleanup(cancel)
	tb.Cleanup(m.Close)
	cfg := WorkerConfig{Capacity: capacity, TimeScale: 1e-12}
	for i := 0; i < workers; i++ {
		mgrSide, wkrSide := loopPipe()
		go m.srv.ServeConn(mgrSide)
		go func() { _ = runWorkerConn(ctx, wkrSide, cfg) }()
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.Workers() < workers {
		if time.Now().After(deadline) {
			tb.Fatalf("only %d of %d workers registered", m.Workers(), workers)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return m
}

var benchTask = workflow.Task{
	Category:    "bench",
	Consumption: resources.New(0.5, 50, 50, 1),
}

// Each load below sets up one benchmark's engine and returns drive: drive(n)
// runs n round trips to completion. The benchmark times drive(b.N), and
// TestRoundTripAllocCeilings counts what drive(2000) allocates.

// benchLoad times drive(b.N) and reports the throughput.
func benchLoad(b *testing.B, drive func(n int)) {
	b.ReportAllocs()
	b.ResetTimer()
	drive(b.N)
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tasks/sec")
}

// driveTasks keeps `depth` tasks in flight through Submit until n have
// completed; task(k) is submitted with k counting down from n-1.
func driveTasks(m *Manager, depth, n int, task func(k int64) workflow.Task) {
	var remaining atomic.Int64
	remaining.Store(int64(n))
	var wg sync.WaitGroup
	for g := 0; g < depth; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := remaining.Add(-1); k >= 0; k = remaining.Add(-1) {
				<-m.Submit(task(k))
			}
		}()
	}
	wg.Wait()
}

// dispatchLoad is sustained dispatch/result round trips: 8 driver goroutines
// per worker keep that many tasks in flight through Submit, every task fits
// its first allocation, and the workers' virtual execution sleeps zero wall
// time — so the per-op cost is one full manager->worker->manager protocol
// round trip including dispatch-time allocation and bookkeeping.
func dispatchLoad(tb testing.TB, workers int) func(n int) {
	m := benchEngine(tb, workers)
	return func(n int) {
		driveTasks(m, 8*workers, n, func(int64) workflow.Task { return benchTask })
	}
}

// BenchmarkWQDispatch1Workers is the single-worker protocol floor.
func BenchmarkWQDispatch1Workers(b *testing.B) { benchLoad(b, dispatchLoad(b, 1)) }

// BenchmarkWQDispatch8Workers is the headline live-engine number: 8
// concurrent workers, 64 tasks in flight.
func BenchmarkWQDispatch8Workers(b *testing.B) { benchLoad(b, dispatchLoad(b, 8)) }

// BenchmarkWQDispatch64Workers stresses the dispatch scan and result
// settling under a wide worker fleet.
func BenchmarkWQDispatch64Workers(b *testing.B) { benchLoad(b, dispatchLoad(b, 64)) }

// deepQueueLoad is BenchmarkWQDeepQueue256's load; each driver adds to
// queued the ready-queue length it finds as it submits.
func deepQueueLoad(tb testing.TB, queued *atomic.Int64) func(n int) {
	capacity := resources.New(4, 1000, 1000, 3600)
	pol := allocator.MustNew(allocator.MaxSeen, allocator.Config{Capacity: capacity, Seed: 1})
	// Leave exploratory mode before the clock starts: max-seen explores
	// with a whole worker, one task at a time.
	for task := 1; task <= 10; task++ {
		pol.Observe(benchTask.Category, task, benchTask.Consumption, benchTask.Runtime())
	}
	m := benchEngineWith(tb, pol, capacity, 2)
	return func(n int) {
		driveTasks(m, 256, n, func(int64) workflow.Task {
			m.mu.Lock()
			queued.Add(int64(m.sched.Ready.Len()))
			m.mu.Unlock()
			return benchTask
		})
	}
}

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
	var queued atomic.Int64
	benchLoad(b, deepQueueLoad(b, &queued))
	b.ReportMetric(float64(queued.Load())/float64(b.N), "queued/pass")
}

// greedyBurstLoad is BenchmarkWQGreedyBurst's load, with the allocator it
// drives.
func greedyBurstLoad(tb testing.TB) (func(n int), *allocator.Allocator) {
	wf, err := workflow.Synthetic("bimodal", 4096, 1)
	if err != nil {
		tb.Fatal(err)
	}
	capacity := resources.PaperWorker()
	pol := allocator.MustNew(allocator.Greedy, allocator.Config{Capacity: capacity, Seed: 1})
	m := benchEngineWith(tb, pol, capacity, 2)
	return func(n int) {
		driveTasks(m, 32, n, func(k int64) workflow.Task { return wf.Tasks[k%int64(len(wf.Tasks))] })
	}, pol
}

// BenchmarkWQGreedyBurst is the recompute-bound scenario: a real
// greedy-bucketing allocator whose records grow with every completion,
// bimodal tasks, 32 in flight on two paper workers that run about half of
// them, so results come back in bursts and every dispatch pass re-predicts a
// standing queue. recomputes/op is the bucketing recomputes (all kinds) per
// completed task: 3 when every Observe is followed by a pass, 3/k when the
// manager observes a burst of k before the first of its passes. The bursts
// are the worker's doing: it answers the tasks one read brought in with one
// write of their results, which the manager's reader takes in as one read.
func BenchmarkWQGreedyBurst(b *testing.B) {
	drive, pol := greedyBurstLoad(b)
	benchLoad(b, drive)
	recomputes := 0
	for _, kinds := range pol.BucketStats() {
		for _, s := range kinds {
			recomputes += s.Recomputes
		}
	}
	b.ReportMetric(float64(recomputes)/float64(b.N), "recomputes/op")
}

// churnLoad overlays worker churn on dispatchLoad's stream at 8 workers: the
// driver whose submission is a multiple of churnEvery first kills one worker
// and spawns a replacement, so the run continuously exercises the
// eviction/requeue path and the alive-chain maintenance alongside
// steady-state dispatch.
func churnLoad(tb testing.TB) func(n int) {
	const workers = 8
	const churnEvery = 2048
	m := benchEngine(tb, workers)
	ctx, stopSpawns := context.WithCancel(context.Background())
	tb.Cleanup(stopSpawns)

	// victim is the one evictable loopback worker of the moment.
	cfg := WorkerConfig{Capacity: resources.New(64, 1<<20, 1<<20, 3600), TimeScale: 1e-12}
	var victimMu sync.Mutex
	var victim net.Conn
	spawnVictim := func() {
		mgrSide, wkrSide := loopPipe()
		go m.srv.ServeConn(mgrSide)
		go func() { _ = runWorkerConn(ctx, wkrSide, cfg) }()
		victimMu.Lock()
		victim = wkrSide
		victimMu.Unlock()
	}
	spawnVictim()

	var submitted atomic.Int64
	return func(n int) {
		driveTasks(m, 8*workers, n, func(int64) workflow.Task {
			if submitted.Add(1)%churnEvery == 0 {
				victimMu.Lock()
				old := victim
				victimMu.Unlock()
				old.Close()
				spawnVictim()
			}
			return benchTask
		})
	}
}

// BenchmarkWQChurn8Workers is dispatch at 8 workers with one of them killed
// and replaced every 2048 tasks.
func BenchmarkWQChurn8Workers(b *testing.B) { benchLoad(b, churnLoad(b)) }

// BenchmarkWQRunWorkflow runs one whole workflow of quickWorkflow tasks per op
// through RunWorkflow, under max-seen on two loopback paper workers. ns/task
// is the wall time per task; it stays flat as the workflow grows only while a
// wake of the waiting caller costs the tasks that finished since the last
// one, not a rescan of every finished task.
func BenchmarkWQRunWorkflow(b *testing.B) {
	for _, n := range []int{2000, 16000} {
		b.Run(fmt.Sprintf("tasks=%d", n), func(b *testing.B) {
			wf := quickWorkflow(n, 1)
			capacity := resources.PaperWorker()
			pol := allocator.MustNew(allocator.MaxSeen, allocator.Config{Capacity: capacity, Seed: 1})
			m := benchEngineWith(b, pol, capacity, 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.RunWorkflow(context.Background(), wf); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/task")
		})
	}
}

// TestRoundTripAllocCeilings holds every BenchmarkWQ* load to a ceiling on
// the allocations of one round trip, counted over 2000 of them after as many
// to warm up. A steady-state round trip costs 3: the outcome channel,
// make(chan metrics.TaskOutcome, 1), is two (the channel and its buffer,
// since the element holds pointers), and the task state is the third; the
// worker side allocates nothing. Up to 0.45 more is driver goroutine
// spin-up, most of it at 64 workers. Past the ceiling the frame hot path
// started allocating again.
func TestRoundTripAllocCeilings(t *testing.T) {
	const trips = 2000
	for _, tc := range []struct {
		name    string
		load    func(testing.TB) func(n int)
		ceiling float64
	}{
		{"Dispatch1Workers", func(tb testing.TB) func(int) { return dispatchLoad(tb, 1) }, 4},
		{"Dispatch8Workers", func(tb testing.TB) func(int) { return dispatchLoad(tb, 8) }, 4},
		{"Dispatch64Workers", func(tb testing.TB) func(int) { return dispatchLoad(tb, 64) }, 4},
		{"DeepQueue256", func(tb testing.TB) func(int) { return deepQueueLoad(tb, new(atomic.Int64)) }, 4},
		{"Churn8Workers", churnLoad, 4},
		// GreedyBurst's bimodal tasks exhaust ~1.3 attempts each, and every
		// exhaustion pays the retry path's allocations on top of the round
		// trip's (the exceeded-kind slice handed to Retry, the attempt ledger
		// outgrowing its inline slot): 10.5-11 measured, ~12 under -race.
		// Its ceiling catches per-dispatch-pass or per-recompute allocation,
		// which would add tens.
		{"GreedyBurst", func(tb testing.TB) func(int) { drive, _ := greedyBurstLoad(tb); return drive }, 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			drive := tc.load(t)
			got := testing.AllocsPerRun(1, func() { drive(trips) }) / trips
			t.Logf("%.3f allocs per round trip", got)
			if got > tc.ceiling {
				t.Errorf("%.3f allocs per round trip, over the ceiling of %v", got, tc.ceiling)
			}
		})
	}
}
