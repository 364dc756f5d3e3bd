package wq

import (
	"net"
	"slices"
	"testing"

	"dynalloc/internal/metrics"
	"dynalloc/internal/resources"
	"dynalloc/internal/wire"
	"dynalloc/internal/workflow"
)

// countingPolicy is a fixed-allocation policy that counts the lifecycle
// calls the manager makes, so a test can assert that a dropped stale result
// fed nothing back into the allocator.
type countingPolicy struct {
	alloc    resources.Vector
	retries  int
	observes int
}

func (p *countingPolicy) Allocate(string, int) resources.Vector { return p.alloc }
func (p *countingPolicy) Retry(_ string, _ int, _ resources.Vector, _ []resources.Kind) resources.Vector {
	p.retries++
	return p.alloc
}
func (p *countingPolicy) Observe(string, int, resources.Vector, float64) { p.observes++ }
func (p *countingPolicy) Name() string                                   { return "counting" }

// discardConn is a connection whose writes go nowhere and succeed.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }

// stageWorker registers a fake connected worker whose frames go nowhere, so
// a test can drive dispatch/evict/handleResult interleavings by hand. Its
// outbox's writer ends with the test.
func stageWorker(t *testing.T, m *Manager, capacity resources.Vector) *managedWorker {
	conn, _ := net.Pipe() // never read: it is only ever closed
	out := wire.NewOutbox(discardConn{conn})
	t.Cleanup(func() { out.Close() })
	return m.addWorkerLocked(&wire.Conn{Conn: conn, Out: out}, capacity)
}

// handleResult settles one result synchronously, outside any reader; the
// dispatches it unlocked are staged on their workers' outboxes.
func (m *Manager) handleResult(w *managedWorker, res Message) {
	m.mu.Lock()
	m.settleLocked(w, res)
	m.mu.Unlock()
}

// queued snapshots the ready queue, front first.
func queued(m *Manager) []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]int, 0, m.sched.Ready.Len())
	for i := 0; i < m.sched.Ready.Len(); i++ {
		out = append(out, m.sched.Ready.At(i).ID)
	}
	return out
}

// heldIDs returns the IDs of the tasks w holds, ascending. Callers hold m.mu.
func heldIDs(m *Manager, w *managedWorker) []int {
	var ids []int
	for id, st := range m.tasks {
		if w.Holds(&st.Task) {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

// TestStaleResultFromEvictedWorkerDropped is the regression for the
// stale-result race: a slow worker is evicted mid-task, the task requeues
// and re-dispatches to another worker, and then the evicted worker's late
// result arrives. Pre-fix, the manager saw a non-terminal task and appended
// a phantom Exhausted attempt, escalated through policy.Retry, and requeued
// the task while it was still running elsewhere — a double dispatch. The
// result must instead be recognized as coming from a non-owning worker and
// dropped.
func TestStaleResultFromEvictedWorkerDropped(t *testing.T) {
	pol := &countingPolicy{alloc: resources.New(2, 200, 200, resources.Unlimited)}
	m := NewManager(pol)

	m.mu.Lock()
	slow := stageWorker(t, m, resources.PaperWorker())
	other := stageWorker(t, m, resources.PaperWorker())
	st := m.registerTaskLocked(workflow.Task{
		Category:    "stale",
		Consumption: resources.New(1, 100, 100, 10),
	}, nil, true)
	id := st.ID
	m.dispatchLocked()
	m.mu.Unlock()

	if !slow.Holds(&st.Task) || other.Holds(&st.Task) {
		t.Fatalf("task not dispatched to worker %d alone", slow.ID())
	}

	// The slow worker goes silent and is evicted; the task requeues and
	// re-dispatches onto the other worker.
	m.evict(slow)
	if !other.Holds(&st.Task) || slow.Holds(&st.Task) {
		t.Fatalf("after eviction, task not re-dispatched to worker %d alone", other.ID())
	}
	if ids := heldIDs(m, other); len(ids) != 1 || ids[0] != id {
		t.Fatal("task not running on the surviving worker after requeue")
	}
	if got := len(st.Outcome.Attempts); got != 1 || st.Outcome.Attempts[0].Status != metrics.Evicted {
		t.Fatalf("attempts after eviction = %+v, want one Evicted", st.Outcome.Attempts)
	}

	// The evicted worker's late exhausted result replays. It must not append
	// an attempt, must not reach policy.Retry, and must not requeue the task.
	m.handleResult(slow, Message{
		Type: MsgResult, TaskID: id, Status: StatusExhausted,
		Duration: 5, Exceeded: resources.KindSetOf([]resources.Kind{resources.Memory}),
	})
	if got := len(st.Outcome.Attempts); got != 1 {
		t.Fatalf("stale exhausted result appended a phantom attempt: %+v", st.Outcome.Attempts)
	}
	if pol.retries != 0 {
		t.Fatalf("stale result escalated through policy.Retry %d times", pol.retries)
	}
	if q := queued(m); len(q) != 0 {
		t.Fatalf("stale result requeued a running task: queue = %v", q)
	}

	// A late success from the evicted worker is just as stale: it must not
	// terminate the task or feed a phantom record to the policy.
	m.handleResult(slow, Message{Type: MsgResult, TaskID: id, Status: StatusSuccess, Duration: 5})
	if st.Terminal() {
		t.Fatal("stale success terminated a task still running elsewhere")
	}
	if pol.observes != 0 {
		t.Fatalf("stale success fed %d phantom records to the policy", pol.observes)
	}

	s := m.Stats()
	if s.StaleResults != 2 {
		t.Errorf("StaleResults = %d, want 2", s.StaleResults)
	}
	if s.Successes != 0 || s.Exhaustions != 0 {
		t.Errorf("stale results counted as real: successes=%d exhaustions=%d", s.Successes, s.Exhaustions)
	}

	// The owning worker's genuine result still lands normally.
	m.handleResult(other, Message{Type: MsgResult, TaskID: id, Status: StatusSuccess, Duration: 7})
	if !st.Terminal() {
		t.Fatal("genuine result from the owning worker was not accepted")
	}
	if pol.observes != 1 {
		t.Errorf("policy observed %d records, want 1", pol.observes)
	}
	if got := st.Outcome.Attempts; len(got) != 2 || got[0].Status != metrics.Evicted || got[1].Status != metrics.Success {
		t.Errorf("attempts = %+v, want Evicted then Success", got)
	}
	if s := m.Stats(); s.Successes != 1 || s.Dispatches != len(st.Outcome.Attempts) {
		t.Errorf("successes = %d, dispatches = %d; want 1 and %d", s.Successes, s.Dispatches, len(st.Outcome.Attempts))
	}
}

// TestStaleResultTracing: dropped results surface in the trace stream so a
// run log shows the race happened.
func TestStaleResultTracing(t *testing.T) {
	var events []Event
	m := NewManager(&countingPolicy{alloc: resources.New(1, 100, 100, resources.Unlimited)},
		WithTracer(FuncTracer(func(ev Event) { events = append(events, ev) })))

	m.mu.Lock()
	w := stageWorker(t, m, resources.PaperWorker())
	stageWorker(t, m, resources.PaperWorker())
	st := m.registerTaskLocked(workflow.Task{
		Category:    "stale",
		Consumption: resources.New(1, 50, 50, 5),
	}, nil, true)
	m.dispatchLocked()
	m.mu.Unlock()

	m.evict(w)
	m.handleResult(w, Message{Type: MsgResult, TaskID: st.ID, Status: StatusSuccess})

	var stale []Event
	for _, ev := range events {
		if ev.Type == EventStaleResult {
			stale = append(stale, ev)
		}
	}
	if len(stale) != 1 {
		t.Fatalf("stale-result events = %d, want 1", len(stale))
	}
	if stale[0].TaskID != st.ID || stale[0].WorkerID != w.ID() || stale[0].Status != StatusSuccess.String() {
		t.Errorf("stale event = %+v", stale[0])
	}
}

// TestDispatchOrderAliveWorkers pins the dispatch scan contract after the
// alive-chain rewrite: tasks place onto connected workers in ascending-ID
// order, evicted workers drop out of the scan entirely (instead of leaving
// tombstones the old 0..nextWID sweep paid for forever), and late joiners
// take the tail position.
func TestDispatchOrderAliveWorkers(t *testing.T) {
	var dispatches [][2]int // (taskID, workerID) in dispatch order
	m := NewManager(&countingPolicy{alloc: resources.New(1, 100, 100, resources.Unlimited)},
		WithTracer(FuncTracer(func(ev Event) {
			if ev.Type == EventDispatch {
				dispatches = append(dispatches, [2]int{ev.TaskID, ev.WorkerID})
			}
		})))

	oneCore := resources.New(1, 1024, 1024, resources.Unlimited)
	task := workflow.Task{Category: "order", Consumption: resources.New(1, 50, 50, 5)}

	m.mu.Lock()
	workers := make([]*managedWorker, 5)
	for i := range workers {
		workers[i] = stageWorker(t, m, oneCore) // room for exactly one task each
	}
	for i := 0; i < 3; i++ {
		m.registerTaskLocked(task, nil, true) // IDs 1..3
	}
	m.dispatchLocked()
	m.mu.Unlock()

	// Tasks 1..3 fill workers 0..2 in ascending order.
	want := [][2]int{{1, 0}, {2, 1}, {3, 2}}
	assertDispatches(t, "initial", dispatches, want)

	// Worker 1 dies: its task requeues and lands on worker 3, the lowest
	// alive worker with headroom.
	m.evict(workers[1])
	want = append(want, [2]int{2, 3})
	assertDispatches(t, "after eviction", dispatches, want)

	// Two new tasks: the first takes worker 4, the second has nowhere to go.
	m.mu.Lock()
	m.registerTaskLocked(task, nil, true) // ID 4
	m.registerTaskLocked(task, nil, true) // ID 5
	m.dispatchLocked()
	m.mu.Unlock()
	want = append(want, [2]int{4, 4})
	assertDispatches(t, "saturated", dispatches, want)

	// Worker 0 dies too; its task parks at the queue front because every
	// survivor is full.
	m.evict(workers[0])
	assertDispatches(t, "no capacity", dispatches, want)

	// A late joiner gets ID 5 and immediately receives the queue front.
	m.mu.Lock()
	stageWorker(t, m, oneCore)
	m.dispatchLocked()
	queueLen := m.sched.Ready.Len()
	alive := m.sched.AppendWorkers(nil)
	m.mu.Unlock()
	want = append(want, [2]int{1, 5})
	assertDispatches(t, "late joiner", dispatches, want)
	if queueLen != 1 {
		t.Errorf("queue depth = %d, want 1 (task 5 still waiting)", queueLen)
	}

	// The scan set is exactly the alive workers, ascending.
	wantAlive := []int{2, 3, 4, 5}
	if len(alive) != len(wantAlive) {
		t.Fatalf("alive workers = %d, want %d", len(alive), len(wantAlive))
	}
	for i, w := range alive {
		if w.ID() != wantAlive[i] {
			t.Fatalf("alive worker order: got id %d at %d, want %d", w.ID(), i, wantAlive[i])
		}
	}
}

func assertDispatches(t *testing.T, stage string, got, want [][2]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: dispatches = %v, want %v", stage, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: dispatch %d = %v, want %v (full: %v)", stage, i, got[i], want[i], got)
		}
	}
}
