package wq

import (
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"dynalloc/internal/allocator"
	"dynalloc/internal/resources"
	"dynalloc/internal/workflow"
)

// pipeWorker is the worker end of a net.Pipe whose other end a real
// wire.Server.ServeConn goroutine reads: the test decides which result frames share one
// Write — and therefore one socket read of the manager's reader — and sees
// every task frame the manager sends.
type pipeWorker struct {
	t     *testing.T
	conn  net.Conn
	tasks chan Message // task frames received, in order
}

func joinPipeWorker(t *testing.T, m *Manager, capacity resources.Vector) *pipeWorker {
	t.Helper()
	mgrSide, wkrSide := net.Pipe()
	// 64 is more task frames than any test here lets the manager send, so
	// the reader goroutine below never blocks the outbox's writer.
	pw := &pipeWorker{t: t, conn: wkrSide, tasks: make(chan Message, 64)}
	t.Cleanup(func() { wkrSide.Close() })
	before := m.Workers()
	go m.srv.ServeConn(mgrSide)
	go func() {
		mr := newMsgReader(wkrSide)
		for {
			var msg Message
			if err := mr.next(&msg); err != nil {
				close(pw.tasks)
				return
			}
			if msg.Type == MsgTask {
				pw.tasks <- msg
			}
		}
	}()
	pw.write(&Message{Type: MsgRegister, Capacity: capacity})
	waitFor(t, "worker registration", func() bool { return m.Workers() == before+1 })
	return pw
}

// write sends the frames in a single Write.
func (pw *pipeWorker) write(frames ...*Message) {
	pw.t.Helper()
	writeFrames(pw.t, pw.conn, frames...)
}

// encodeFrames is the frames' bytes on the wire, back to back.
func encodeFrames(t testing.TB, frames ...*Message) []byte {
	t.Helper()
	var buf []byte
	for _, f := range frames {
		var err error
		if buf, err = appendMessage(buf, f); err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

// writeFrames encodes the frames and hands them to w in a single Write.
func writeFrames(t *testing.T, w io.Writer, frames ...*Message) {
	t.Helper()
	if _, err := w.Write(encodeFrames(t, frames...)); err != nil {
		t.Fatal(err)
	}
}

// take returns the next n task frames the manager sent this worker.
func (pw *pipeWorker) take(n int) []Message {
	pw.t.Helper()
	out := make([]Message, 0, n)
	for len(out) < n {
		select {
		case msg, ok := <-pw.tasks:
			if !ok {
				pw.t.Fatalf("connection closed after %d of %d task frames", len(out), n)
			}
			out = append(out, msg)
		case <-time.After(5 * time.Second):
			pw.t.Fatalf("timed out after %d of %d task frames", len(out), n)
		}
	}
	return out
}

// successes builds one success result frame per task ID.
func successes(ids ...int) []*Message {
	out := make([]*Message, len(ids))
	for i, id := range ids {
		out[i] = &Message{Type: MsgResult, TaskID: id, Status: StatusSuccess, Duration: 1}
	}
	return out
}

func taskIDs(tasks []Message) []int {
	ids := make([]int, len(tasks))
	for i, task := range tasks {
		ids[i] = task.TaskID
	}
	return ids
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// waitIntake blocks until the manager has settled `staged` result frames: a
// read's results are counted in the same hold of the manager lock that
// settles them, so the count is seen only once they are settled.
func waitIntake(t *testing.T, m *Manager, staged int64) {
	t.Helper()
	waitFor(t, fmt.Sprintf("%d results to settle", staged), func() bool {
		return m.Stats().ResultsStaged == staged
	})
}

// eventPolicy is a fixed-allocation policy that logs every lifecycle call in
// order.
type eventPolicy struct {
	alloc resources.Vector

	mu     sync.Mutex
	events []string // "O<id>", "A<id>", "R<id>"
}

func (p *eventPolicy) log(kind string, id int) {
	p.mu.Lock()
	p.events = append(p.events, fmt.Sprintf("%s%d", kind, id))
	p.mu.Unlock()
}

func (p *eventPolicy) snapshot() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.events...)
}

func (p *eventPolicy) Allocate(_ string, id int) resources.Vector {
	p.log("A", id)
	return p.alloc
}

func (p *eventPolicy) Retry(_ string, id int, _ resources.Vector, _ []resources.Kind) resources.Vector {
	p.log("R", id)
	return p.alloc
}

func (p *eventPolicy) Observe(_ string, id int, _ resources.Vector, _ float64) {
	p.log("O", id)
}

func (p *eventPolicy) Name() string { return "event" }

var burstTask = workflow.Task{Category: "burst", Consumption: resources.New(1, 1000, 1000, 10)}

// TestBurstObservedBeforeFirstPrediction writes the results of every running
// task in one Write and checks the order the policy saw: all of the burst's
// Observes, then the predictions of the dispatch passes — so a lazy bucketing
// state pays for the burst once.
func TestBurstObservedBeforeFirstPrediction(t *testing.T) {
	const running, queued = 4, 3
	pol := &eventPolicy{alloc: resources.New(1, 1000, 1000, resources.Unlimited)}
	m := NewManager(pol)
	pw := joinPipeWorker(t, m, resources.New(running, 1e6, 1e6, resources.Unlimited))
	for i := 0; i < running+queued; i++ {
		m.Submit(burstTask)
	}
	burst := pw.take(running)
	mark := len(pol.snapshot())
	pw.write(successes(taskIDs(burst)...)...)
	waitIntake(t, m, running)

	events := pol.snapshot()[mark:]
	var want []string
	for _, task := range burst {
		want = append(want, fmt.Sprintf("O%d", task.TaskID))
	}
	if len(events) <= running {
		t.Fatalf("no prediction followed the burst: %v", events)
	}
	if got := events[:running]; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("first calls after the burst = %v, want its Observes %v", got, want)
	}
	for _, ev := range events[running:] {
		if !strings.HasPrefix(ev, "A") {
			t.Errorf("call %s after the burst's Observes, want only Allocates: %v", ev, events)
		}
	}
	s := m.Stats()
	if s.ResultBatches != 1 || s.ResultsStaged != running {
		t.Errorf("ResultBatches=%d ResultsStaged=%d, want 1 and %d", s.ResultBatches, s.ResultsStaged, running)
	}
	if s.Successes != running || s.Dispatches != running+queued {
		t.Errorf("successes=%d dispatches=%d, want %d and %d", s.Successes, s.Dispatches, running, running+queued)
	}
	pw.take(queued) // the freed capacity went to the queued tasks
}

// TestBurstCostsOneRecomputePerKind is the same burst against a real
// greedy-bucketing allocator: its lazy state recomputes on the first
// prediction after a run of observations, so the whole burst costs one
// recompute per resource kind where one pass per Observe cost one each.
func TestBurstCostsOneRecomputePerKind(t *testing.T) {
	const running, queued = 4, 3
	capacity := resources.New(running, running*1000, running*1000, resources.Unlimited)
	pol := allocator.MustNew(allocator.Greedy, allocator.Config{Capacity: capacity, Seed: 1})
	// Leave exploratory mode: afterwards every first attempt is predicted
	// from the records, all equal here, so it is the task's own size.
	for id := 1; id <= 12; id++ {
		pol.Observe(burstTask.Category, id, burstTask.Consumption, burstTask.Runtime())
	}
	m := NewManager(pol)
	pw := joinPipeWorker(t, m, capacity)
	for i := 0; i < running+queued; i++ {
		m.Submit(burstTask)
	}
	burst := pw.take(running)
	if s := m.Stats(); s.InFlight != running || s.QueueDepth != queued {
		t.Fatalf("in flight %d, queued %d; want %d and %d", s.InFlight, s.QueueDepth, running, queued)
	}
	before := pol.BucketStats()[burstTask.Category]
	pw.write(successes(taskIDs(burst)...)...)
	waitIntake(t, m, running)

	after := pol.BucketStats()[burstTask.Category]
	if len(after) == 0 {
		t.Fatal("no bucketing telemetry")
	}
	for k, s := range after {
		if got := s.Recomputes - before[k].Recomputes; got != 1 {
			t.Errorf("%s: %d recomputes for a burst of %d, want 1", k, got, running)
		}
	}
	if got := pol.Records(burstTask.Category); got != 12+running {
		t.Errorf("%d records, want %d", got, 12+running)
	}
}

// TestBurstDispatchesLikeSingleResults pins that batching moves only the
// Observes: with a policy whose answers do not depend on them, a k-frame
// burst dispatches the same tasks to the same workers in the same order as
// k handleResult calls, because every result still frees its own capacity
// right before its own pass.
func TestBurstDispatchesLikeSingleResults(t *testing.T) {
	const tasks = 24
	cats := [2]string{"wide", "narrow"}
	newManager := func(order *dispatchLog) *Manager {
		pol := &sizedPolicy{
			sizes: map[string]resources.Vector{
				"wide":   resources.New(8, 1000, 1000, resources.Unlimited),
				"narrow": resources.New(3, 1000, 1000, resources.Unlimited),
			},
			calls: map[string]int{},
		}
		return NewManager(recordingPolicy{Policy: pol, onAllocate: func(string) {}}, WithTracer(order))
	}
	submit := func(m *Manager) {
		for i := 0; i < tasks; i++ {
			m.Submit(workflow.Task{Category: cats[i%2], Consumption: resources.New(1, 100, 100, 10)})
		}
	}

	// One result at a time, on workers whose frames go nowhere.
	var single dispatchLog
	ms := newManager(&single)
	ms.mu.Lock()
	staged := [2]*managedWorker{stageWorker(t, ms, resources.PaperWorker()), stageWorker(t, ms, resources.PaperWorker())}
	ms.mu.Unlock()
	submit(ms)
	var rounds [][2][]int // per round, per worker: the task IDs reported
	for ms.Stats().InFlight > 0 {
		var round [2][]int
		for wi, w := range staged {
			ms.mu.Lock()
			ids := heldIDs(ms, w)
			ms.mu.Unlock()
			for _, res := range successes(ids...) {
				ms.handleResult(w, *res)
			}
			round[wi] = ids
		}
		rounds = append(rounds, round)
	}

	// The same results, each worker's round in one Write.
	var burst dispatchLog
	mb := newManager(&burst)
	pipes := [2]*pipeWorker{
		joinPipeWorker(t, mb, resources.PaperWorker()),
		joinPipeWorker(t, mb, resources.PaperWorker()),
	}
	submit(mb)
	var sent int64
	for _, round := range rounds {
		for wi, ids := range round {
			if len(ids) == 0 {
				continue
			}
			pipes[wi].write(successes(ids...)...)
			sent += int64(len(ids))
			waitIntake(t, mb, sent)
		}
	}

	mb.mu.Lock()
	got := fmt.Sprint(burst)
	mb.mu.Unlock()
	if want := fmt.Sprint(single); got != want {
		t.Errorf("dispatch order differs:\n single results %v\n bursts         %v", want, got)
	}
	if len(single) != tasks {
		t.Errorf("%d dispatches, want %d", len(single), tasks)
	}
	if s := mb.Stats(); s.Successes != tasks || s.StaleResults != 0 {
		t.Errorf("bursts: successes=%d stale=%d, want %d and 0", s.Successes, s.StaleResults, tasks)
	}
	if s := mb.Stats(); s.ResultBatches >= s.ResultsStaged {
		t.Errorf("no batch held more than one result: %d batches, %d results", s.ResultBatches, s.ResultsStaged)
	}
}

// sizedPolicy allocates a fixed vector per category and counts first-attempt
// calls per category.
type sizedPolicy struct {
	sizes map[string]resources.Vector
	calls map[string]int
}

func (p *sizedPolicy) Allocate(cat string, _ int) resources.Vector {
	p.calls[cat]++
	return p.sizes[cat]
}

func (p *sizedPolicy) Retry(_ string, _ int, prev resources.Vector, _ []resources.Kind) resources.Vector {
	return prev
}
func (p *sizedPolicy) Observe(string, int, resources.Vector, float64) {}
func (p *sizedPolicy) Name() string                                   { return "sized" }

type dispatchLog [][2]int // (task, worker) in dispatch order

func (d *dispatchLog) Trace(ev Event) {
	if ev.Type == EventDispatch {
		*d = append(*d, [2]int{ev.TaskID, ev.WorkerID})
	}
}
