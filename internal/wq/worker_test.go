package wq

import (
	"context"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"dynalloc/internal/resources"
	"dynalloc/internal/sim"
	"dynalloc/internal/wire"
)

func TestWorkerConfigDefaults(t *testing.T) {
	cfg := WorkerConfig{}.withDefaults()
	if cfg.Capacity != resources.PaperWorker() {
		t.Errorf("default capacity = %v", cfg.Capacity)
	}
	if cfg.TimeScale != 1e-4 {
		t.Errorf("default timescale = %v", cfg.TimeScale)
	}
	custom := WorkerConfig{Capacity: resources.New(4, 1024, 1024, 0), TimeScale: 1}.withDefaults()
	if custom.Capacity.Get(resources.Cores) != 4 || custom.TimeScale != 1 {
		t.Errorf("custom config overwritten: %+v", custom)
	}
}

func TestExecuteTaskSuccess(t *testing.T) {
	cfg := WorkerConfig{TimeScale: 0}.withDefaults()
	cfg.TimeScale = 1e-9 // effectively no sleeping
	msg := Message{
		Type:     MsgTask,
		TaskID:   7,
		Category: "c",
		Alloc:    resources.New(2, 1000, 1000, resources.Unlimited),
		Peak:     resources.New(1, 500, 100, 0),
		Runtime:  30,
	}
	res, wall := executeTask(cfg, &msg)
	if res.Type != MsgResult || res.TaskID != 7 {
		t.Fatalf("result frame = %+v", res)
	}
	if wall != 30 {
		t.Errorf("wall time = %v, want 30 ns (30 s at 1e-9)", wall)
	}
	if res.Status != StatusSuccess {
		t.Errorf("status = %q", res.Status)
	}
	if res.Duration != 30 {
		t.Errorf("duration = %v, want the runtime", res.Duration)
	}
	if res.Exceeded != 0 {
		t.Errorf("exceeded = %v", res.Exceeded.AppendKinds(nil))
	}
}

func TestExecuteTaskExhaustion(t *testing.T) {
	cfg := WorkerConfig{}.withDefaults()
	cfg.TimeScale = 1e-9
	cfg.Model = sim.RampLinear
	msg := Message{
		Type:    MsgTask,
		TaskID:  8,
		Alloc:   resources.New(2, 250, 1000, resources.Unlimited),
		Peak:    resources.New(1, 500, 100, 0),
		Runtime: 100,
	}
	res, _ := executeTask(cfg, &msg)
	if res.Status != StatusExhausted {
		t.Fatalf("status = %q", res.Status)
	}
	if res.Duration != 50 {
		t.Errorf("kill time = %v, want 50 (linear ramp crosses at a/c)", res.Duration)
	}
	if res.Exceeded != 1<<resources.Memory {
		t.Errorf("exceeded = %v, want [memory]", res.Exceeded.AppendKinds(nil))
	}
}

// TestExecuteTaskCancelledContext: a timed attempt whose context is
// cancelled ends at once and reports nothing, since it did not run its
// course.
func TestExecuteTaskCancelledContext(t *testing.T) {
	cfg := WorkerConfig{}.withDefaults()
	cfg.TimeScale = 10 // would sleep 300 s without cancellation
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	msg := Message{
		Type:    MsgTask,
		TaskID:  9,
		Alloc:   resources.New(2, 1000, 1000, resources.Unlimited),
		Peak:    resources.New(1, 500, 100, 0),
		Runtime: 30,
	}
	res, wall := executeTask(cfg, &msg)
	if res.Status != StatusSuccess || wall != 300*time.Second {
		t.Fatalf("result %+v after %v, want a success after 300 s", res, wall)
	}
	conn, _ := loopPipe()
	wc := &workerConn{ctx: ctx, cfg: cfg, conn: conn, out: wire.NewOutbox(conn)}
	wc.timed.Add(1)
	ended := make(chan struct{})
	go func() {
		wc.sleepThenReport(res, wall)
		close(ended)
	}()
	select {
	case <-ended:
	case <-time.After(time.Second):
		t.Fatal("a cancelled attempt still sleeps")
	}
	// Close writes whatever was staged: a cancelled attempt staged nothing.
	if err := wc.out.Close(); err != nil || wc.out.Writes() != 0 {
		t.Errorf("a cancelled attempt cost %d writes (%v), want none", wc.out.Writes(), err)
	}
}

// taskFrames returns k task frames, IDs 1 to k, whose attempts succeed after
// 10 simulated seconds.
func taskFrames(k int) []*Message {
	frames := make([]*Message, k)
	for i := range frames {
		frames[i] = &Message{Type: MsgTask, TaskID: i + 1, Category: "burst",
			Alloc: resources.New(1, 1000, 1000, 100), Peak: resources.New(1, 500, 500, 10), Runtime: 10}
	}
	return frames
}

// startWorker runs runWorkerConn over conn, the worker's end of a loopPipe
// whose manager end is mgrSide, and reads its registration there. The
// worker's return value arrives on the channel.
func startWorker(t *testing.T, ctx context.Context, conn, mgrSide net.Conn, cfg WorkerConfig) (msgReader, <-chan error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- runWorkerConn(ctx, conn, cfg) }()
	mr := newMsgReader(mgrSide)
	var reg Message
	if err := mr.next(&reg); err != nil || reg.Type != MsgRegister {
		t.Fatalf("first frame = %+v, %v; want the registration", reg, err)
	}
	return mr, done
}

// readReplies reads k results and the given number of pongs off mr, in any
// order, and checks that the results report the k tasks of taskFrames(k)
// once each.
func readReplies(t *testing.T, mr msgReader, k, pongs int) {
	t.Helper()
	seen := map[int]bool{}
	var msg Message
	for n := 0; n < k+pongs; n++ {
		if err := mr.next(&msg); err != nil {
			t.Fatalf("after %d results and %d pongs: %v", len(seen), n-len(seen), err)
		}
		if msg.Type == MsgPong && n-len(seen) < pongs {
			continue
		}
		want := Message{Type: MsgResult, TaskID: msg.TaskID, Status: StatusSuccess, Duration: 10}
		if msg != want || seen[msg.TaskID] || msg.TaskID < 1 || msg.TaskID > k {
			t.Fatalf("frame %+v, want a result for one of tasks 1 to %d, once each, or one of %d pongs", msg, k, pongs)
		}
		seen[msg.TaskID] = true
	}
}

// heldWrites is the worker's end of a connection that counts the bytes the
// worker has read and holds every write after the first (the registration)
// until release is closed.
type heldWrites struct {
	net.Conn
	release chan struct{}
	writes  atomic.Int64
	read    atomic.Int64
}

func (c *heldWrites) Write(p []byte) (int, error) {
	if c.writes.Add(1) > 1 {
		<-c.release
	}
	return c.Conn.Write(p)
}

func (c *heldWrites) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

// TestWorkerKeepsReadingWhileWritesBlock holds the worker's writes to a
// manager that has stopped reading, and sends it a task and a ping at a
// time: the worker must still read every frame, since a reader that answered
// a ping with a write of its own would stop at the first. Once the writes go
// through, every result and every pong arrives.
func TestWorkerKeepsReadingWhileWritesBlock(t *testing.T) {
	const k = 8
	mgrSide, wkrSide := loopPipe()
	conn := &heldWrites{Conn: wkrSide, release: make(chan struct{})}
	released := false
	defer func() {
		if !released {
			close(conn.release)
		}
	}()
	mr, done := startWorker(t, context.Background(), conn, mgrSide, WorkerConfig{TimeScale: 1e-12})
	sent := 0
	for _, task := range taskFrames(k) {
		frames := encodeFrames(t, task, &Message{Type: MsgPing})
		if _, err := mgrSide.Write(frames); err != nil {
			t.Fatal(err)
		}
		sent += len(frames)
		waitFor(t, "the worker to read the task and the ping", func() bool { return conn.read.Load() == int64(sent) })
	}
	close(conn.release)
	released = true
	readReplies(t, mr, k, k)
	writeFrames(t, mgrSide, &Message{Type: MsgShutdown})
	if err := <-done; err != nil {
		t.Errorf("worker exit: %v", err)
	}
}

// TestWorkerWritesResultsBeforeHangup sends k tasks and the shutdown in one
// write: the worker reads the shutdown before it has written any result, and
// must still write all k before it hangs up.
func TestWorkerWritesResultsBeforeHangup(t *testing.T) {
	const k = 16
	mgrSide, wkrSide := loopPipe()
	mr, done := startWorker(t, context.Background(), wkrSide, mgrSide, WorkerConfig{TimeScale: 1e-12})
	writeFrames(t, mgrSide, append(taskFrames(k), &Message{Type: MsgShutdown})...)
	if err := <-done; err != nil {
		t.Fatalf("worker exit: %v", err)
	}
	readReplies(t, mr, k, 0)
	var msg Message
	if err := mr.next(&msg); err != io.EOF {
		t.Errorf("after the results: %+v, %v; want the hangup", msg, err)
	}
}

// TestWorkerCancelStopsTimedAttempts cancels the worker while an attempt
// that would sleep 100 s is in flight: the worker returns at once, not when
// the attempt would have ended.
func TestWorkerCancelStopsTimedAttempts(t *testing.T) {
	mgrSide, wkrSide := loopPipe()
	conn := &heldWrites{Conn: wkrSide, release: make(chan struct{})}
	close(conn.release)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, done := startWorker(t, ctx, conn, mgrSide, WorkerConfig{TimeScale: 10})
	frame := encodeFrames(t, taskFrames(1)...)
	if _, err := mgrSide.Write(frame); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the worker to read the task", func() bool { return conn.read.Load() == int64(len(frame)) })
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("worker exit: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("the worker still runs a second after its context was cancelled")
	}
}
