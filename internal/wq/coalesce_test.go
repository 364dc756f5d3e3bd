package wq

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"dynalloc/internal/metrics"
	"dynalloc/internal/resources"
	"dynalloc/internal/wire"
)

// writeLog is a connection that records what every Write carried, so a test
// can count the writes a burst cost and see which frames shared one. With
// hold set, the first Write announces itself on held and parks until hold is
// closed — the outbox's writer caught inside its write.
type writeLog struct {
	net.Conn
	mu         sync.Mutex
	writes     [][]byte
	hold, held chan struct{}
}

func (c *writeLog) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, append([]byte(nil), p...))
	first := len(c.writes) == 1
	c.mu.Unlock()
	if first && c.hold != nil {
		close(c.held)
		<-c.hold
	}
	return c.Conn.Write(p)
}

// frames returns, for every recorded Write that carried frames of the given
// type, how many it carried.
func (c *writeLog) frames(t *testing.T, typ MsgType) []int {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var counts []int
	for _, w := range c.writes {
		n := 0
		mr := newMsgReader(bytes.NewReader(w))
		for {
			var msg Message
			err := mr.next(&msg)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("write %x: %v", w, err)
			}
			if msg.Type == typ {
				n++
			}
		}
		if n > 0 {
			counts = append(counts, n)
		}
	}
	return counts
}

func sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// onOneP runs the rest of the test on a single P: a yield then runs every
// runnable goroutine before the yielder resumes, so which frames share a
// write does not depend on the machine. One exception remains — every 61st
// scheduling decision looks at the global queue, where a yielded goroutine
// waits, first — so a burst can split once, and the tests allow for that.
func onOneP(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// joinLoggedWorker registers a worker over a buffered in-memory connection
// whose manager-side writes are logged. Nothing reads the task frames: the
// tests look at the log.
func joinLoggedWorker(t *testing.T, m *Manager, log *writeLog) {
	t.Helper()
	mgrSide, wkrSide := loopPipe()
	t.Cleanup(func() { wkrSide.Close() })
	log.Conn = mgrSide
	before := m.Workers()
	go m.srv.ServeConn(log)
	writeFrames(t, wkrSide, &Message{Type: MsgRegister, Capacity: resources.New(64, 1e6, 1e6, resources.Unlimited)})
	waitFor(t, "worker registration", func() bool { return m.Workers() == before+1 })
}

// TestCoalesceSubmitsWokenTogetherShareOneWrite makes k submitters runnable
// at once. Each stages its task frame on the worker's outbox and commits;
// the first commit wakes the outbox's writer, which yields before it takes
// the stage, so the others stage behind it first and the worker's socket sees
// one write holding all k task frames where it used to see k. A lone Submit,
// with nothing to wait for, is written just the same.
func TestCoalesceSubmitsWokenTogetherShareOneWrite(t *testing.T) {
	onOneP(t)
	for _, k := range []int{1, 16} {
		m := NewManager(fixedPolicy{alloc: resources.New(1, 100, 100, resources.Unlimited)})
		log := &writeLog{}
		joinLoggedWorker(t, m, log)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < k; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				m.Submit(burstTask)
			}()
		}
		close(start)
		wg.Wait() // every Submit has returned; the writer writes on its own
		waitFor(t, "the task frames", func() bool { return sum(log.frames(t, MsgTask)) == k })
		writes := log.frames(t, MsgTask)
		if sum(writes) != k || len(writes) > 2 {
			t.Errorf("%d submitters: task frames per write = %v, want all %d in one write (two at most)", k, writes, k)
		}
		if s := m.Stats(); s.FramesSent != int64(k) || s.FlushBatches != int64(len(writes)) {
			t.Errorf("%d submitters: FramesSent=%d FlushBatches=%d, want %d and %d",
				k, s.FramesSent, s.FlushBatches, k, len(writes))
		}
	}
}

// TestCoalesceFramesStagedDuringWriteGoOut catches the outbox's writer inside
// its write, stages two more frames behind it, and makes no further call
// after letting it go: the wake they left must deliver them, in one write.
func TestCoalesceFramesStagedDuringWriteGoOut(t *testing.T) {
	m := NewManager(fixedPolicy{alloc: resources.New(1, 100, 100, resources.Unlimited)})
	log := &writeLog{hold: make(chan struct{}), held: make(chan struct{})}
	joinLoggedWorker(t, m, log)
	m.Submit(burstTask)
	<-log.held
	// These return without I/O, as every Submit does: the writer writes.
	m.Submit(burstTask)
	m.Submit(burstTask)
	close(log.hold)
	waitFor(t, "the task frames", func() bool { return sum(log.frames(t, MsgTask)) == 3 })
	if writes := log.frames(t, MsgTask); !reflect.DeepEqual(writes, []int{1, 2}) {
		t.Errorf("task frames per write = %v, want [1 2]", writes)
	}
}

// slowPolicy is a fixed allocation that takes a millisecond to compute.
type slowPolicy struct{ fixedPolicy }

func (p slowPolicy) Allocate(cat string, id int) resources.Vector {
	time.Sleep(time.Millisecond)
	return p.fixedPolicy.Allocate(cat, id)
}

// TestCoalesceDispatchesOfOneBurstShareOneWrite answers the four tasks a
// worker runs with one write of four results while four more wait in the
// queue. The worker's reader settles the burst under the manager lock, one
// dispatch pass per result, and every pass takes a millisecond to allocate:
// a writer woken by the first task frame would have run meanwhile and
// written it alone. The read's commits wait for its end, so the four frames
// it dispatched leave in one write.
func TestCoalesceDispatchesOfOneBurstShareOneWrite(t *testing.T) {
	m := NewManager(slowPolicy{fixedPolicy{alloc: resources.New(16, 100, 100, resources.Unlimited)}})
	mgrSide, wkrSide := loopPipe()
	t.Cleanup(func() { wkrSide.Close() })
	log := &writeLog{Conn: mgrSide}
	go m.srv.ServeConn(log)
	writeFrames(t, wkrSide, &Message{Type: MsgRegister, Capacity: resources.New(64, 1e6, 1e6, resources.Unlimited)})
	waitFor(t, "worker registration", func() bool { return m.Workers() == 1 })
	for i := 0; i < 8; i++ {
		m.Submit(burstTask) // IDs 1 to 8; the first four fit
	}
	waitFor(t, "the first four task frames", func() bool { return sum(log.frames(t, MsgTask)) == 4 })
	before := len(log.frames(t, MsgTask))
	writeFrames(t, wkrSide, successes(1, 2, 3, 4)...)
	waitFor(t, "the burst's four task frames", func() bool { return sum(log.frames(t, MsgTask)) == 8 })
	if writes := log.frames(t, MsgTask)[before:]; !reflect.DeepEqual(writes, []int{4}) {
		t.Errorf("task frames per write after the burst = %v, want all 4 in one write", writes)
	}
}

// TestCoalesceResultsOfOneReadShareWrites plays the manager to a real worker:
// k task frames arrive in one write, and the reader settles all k attempts,
// which take no wall time, before it goes back to the socket, which is when
// it wakes the connection's writer. So on any number of Ps the k results come
// back in one write, carrying the task ID and the verdict, not the task.
func TestCoalesceResultsOfOneReadShareWrites(t *testing.T) {
	const k = 16
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			mgrSide, wkrSide := loopPipe()
			log := &writeLog{Conn: wkrSide}
			mr, done := startWorker(t, context.Background(), log, mgrSide, WorkerConfig{TimeScale: 1e-12})
			writeFrames(t, mgrSide, taskFrames(k)...)
			readReplies(t, mr, k, 0)
			writeFrames(t, mgrSide, &Message{Type: MsgShutdown})
			if err := <-done; err != nil {
				t.Fatalf("worker exit: %v", err)
			}
			writes := log.frames(t, MsgResult)
			if sum(writes) != k || len(writes) != 1 {
				t.Errorf("result frames per write = %v, want all %d in one write", writes, k)
			}
		})
	}
}

// settleLog is a fixed-allocation policy that records what the manager fed
// back, task IDs aside.
type settleLog struct {
	alloc resources.Vector
	mu    sync.Mutex
	calls []string
}

func (p *settleLog) Allocate(string, int) resources.Vector { return p.alloc }
func (p *settleLog) Retry(cat string, _ int, prev resources.Vector, exceeded []resources.Kind) resources.Vector {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.calls = append(p.calls, fmt.Sprint("retry ", cat, prev, exceeded))
	return prev.Scale(2)
}
func (p *settleLog) Observe(cat string, _ int, peak resources.Vector, runtime float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.calls = append(p.calls, fmt.Sprint("observe ", cat, peak, runtime))
}
func (p *settleLog) Name() string { return "settle-log" }

// TestLeanResultSettlesLikeLegacy runs one task through an exhaustion and a
// success, answered by result frames that carry only what the manager reads:
// the task ID, the verdict, the exceeded kinds and the duration (the frames
// that echoed the task back are gone with the JSON wire). The attempts ledger
// and what the policy is told — one Retry, one Observe — are fed from the
// manager's own copy of the task.
func TestLeanResultSettlesLikeLegacy(t *testing.T) {
	alloc := resources.New(1, 500, 1000, resources.Unlimited)
	pol := &settleLog{alloc: alloc}
	m := NewManager(pol)
	pw := joinPipeWorker(t, m, resources.PaperWorker())
	outcome := m.Submit(burstTask)
	answer := func(res Message) {
		res.Type, res.TaskID = MsgResult, pw.take(1)[0].TaskID
		pw.write(&res)
	}
	answer(Message{Status: StatusExhausted, Duration: 4, Exceeded: resources.KindSetOf([]resources.Kind{resources.Memory})})
	answer(Message{Status: StatusSuccess, Duration: 10})
	var attempts []metrics.Attempt
	select {
	case o := <-outcome:
		attempts = o.Attempts
	case <-time.After(5 * time.Second):
		t.Fatal("the task never completed")
	}
	waitIntake(t, m, 2)
	wantAttempts := []metrics.Attempt{
		{Alloc: alloc, Duration: 4, Status: metrics.Exhausted},
		{Alloc: alloc.Scale(2), Duration: 10, Status: metrics.Success},
	}
	if !reflect.DeepEqual(attempts, wantAttempts) {
		t.Errorf("attempts = %+v, want %+v", attempts, wantAttempts)
	}
	want := []string{
		fmt.Sprint("retry ", burstTask.Category, alloc, []resources.Kind{resources.Memory}),
		fmt.Sprint("observe ", burstTask.Category, burstTask.Consumption, burstTask.Runtime()),
	}
	pol.mu.Lock()
	defer pol.mu.Unlock()
	if !reflect.DeepEqual(pol.calls, want) {
		t.Errorf("policy calls = %v, want %v", pol.calls, want)
	}
}

// TestWedgedWorkerIsEvictedOnWriteTimeout joins a worker that registers and
// then never reads again, with heartbeats off. The write to it blocks only
// its own outbox's writer: the other worker gets its dispatch at once, not
// after the wedged write's deadline. That write fails at the deadline, the
// wedged worker is evicted, and its task requeues and completes elsewhere.
func TestWedgedWorkerIsEvictedOnWriteTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out wire.WriteTimeout")
	}
	one := resources.New(1, 1000, 1000, resources.Unlimited)
	m := NewManager(fixedPolicy{alloc: one})
	mgrSide, wedged := net.Pipe()
	t.Cleanup(func() { wedged.Close() })
	go m.srv.ServeConn(mgrSide)
	writeFrames(t, wedged, &Message{Type: MsgRegister, Capacity: one})
	waitFor(t, "the wedged worker's registration", func() bool { return m.Workers() == 1 })
	healthy := joinPipeWorker(t, m, one)

	// First fit puts the first task on the wedged worker (the lower ID),
	// whose writer blocks in the write nobody reads.
	first := m.Submit(burstTask)
	waitFor(t, "the wedged write", func() bool { return m.Stats().FlushBatches == 1 })
	second := m.Submit(burstTask) // for the healthy worker, through its own outbox

	next := func(what string) Message {
		select {
		case msg, ok := <-healthy.tasks:
			if !ok {
				t.Fatalf("healthy worker's connection closed waiting for %s", what)
			}
			return msg
		case <-time.After(wire.WriteTimeout + 5*time.Second):
			t.Fatalf("timed out waiting for %s", what)
			return Message{}
		}
	}
	began := time.Now()
	b := next("the dispatch made beside the wedged write")
	if waited := time.Since(began); waited > time.Second {
		t.Errorf("healthy worker waited %v for its dispatch beside the wedged write, want under 1 s", waited)
	}
	healthy.write(successes(b.TaskID)...)
	if o := <-second; len(o.Attempts) != 1 || o.Attempts[0].Status != metrics.Success {
		t.Errorf("second task attempts = %+v, want one success", o.Attempts)
	}
	a := next("the wedged worker's task, requeued")
	healthy.write(successes(a.TaskID)...)
	o := <-first
	if len(o.Attempts) != 2 || o.Attempts[0].Status != metrics.Evicted || o.Attempts[1].Status != metrics.Success {
		t.Errorf("first task attempts = %+v, want Evicted then Success", o.Attempts)
	}
	if s := m.Stats(); s.WorkersLost != 1 || s.Evictions != 1 || s.ConnectedWorkers != 1 {
		t.Errorf("lost=%d evictions=%d connected=%d, want 1, 1, 1", s.WorkersLost, s.Evictions, s.ConnectedWorkers)
	}
}
