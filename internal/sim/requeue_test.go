package sim

import (
	"slices"
	"testing"

	"dynalloc/internal/opportunistic"
	"dynalloc/internal/resources"
	"dynalloc/internal/workflow"
)

// scriptPool is an opportunistic.Model that replays a fixed arrival script,
// letting a test stage an exact eviction scenario.
type scriptPool []opportunistic.Arrival

func (p scriptPool) Schedule(uint64) []opportunistic.Arrival { return p }
func (p scriptPool) Name() string                            { return "script" }

// orderPolicy hands out a fixed allocation and records the order in which
// task completions are observed.
type orderPolicy struct {
	alloc    resources.Vector
	observed []int
}

func (p *orderPolicy) Allocate(string, int) resources.Vector { return p.alloc }
func (p *orderPolicy) Retry(_ string, _ int, _ resources.Vector, _ []resources.Kind) resources.Vector {
	return p.alloc
}
func (p *orderPolicy) Observe(_ string, id int, _ resources.Vector, _ float64) {
	p.observed = append(p.observed, id)
}
func (p *orderPolicy) Name() string { return "order" }

// TestEvictionRequeuesThroughSchedulerCore is the simulator's half of the
// recovery contract sched.TestEvictedTasksRequeueAsAscendingBlock pins: when
// a worker carrying several tasks is evicted, the victims go back to the
// queue front in ascending task order, ahead of what was already waiting
// (wq's half is TestEvictionRequeueDeterministic).
//
// Worker 0 (3 cores) runs tasks 1-3 and is evicted at t=50 while tasks 4-6
// wait. Worker 1 arrives at t=60 and never leaves. The three replayed
// victims share one completion timestamp, and the event engine fires
// same-time events in scheduling order, so the observed completion order is
// exactly the post-eviction queue order.
func TestEvictionRequeuesThroughSchedulerCore(t *testing.T) {
	w := &workflow.Workflow{Name: "parity"}
	for i := 1; i <= 6; i++ {
		w.Tasks = append(w.Tasks, workflow.Task{
			ID:          i,
			Category:    "parity",
			Consumption: resources.New(1, 100, 10, 100),
		})
	}
	pol := &orderPolicy{alloc: resources.New(1, 200, 50, resources.Unlimited)}
	res, err := Run(Config{
		Workflow:    w,
		Policy:      pol,
		Pool:        scriptPool{{At: 0, Lifetime: 50}, {At: 60}},
		WorkerShape: resources.New(3, 1024, 1024, resources.Unlimited),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evictions != 1 {
		t.Fatalf("staged scenario produced %d evictions, want 1", res.Evictions)
	}
	for _, id := range []int{1, 2, 3} {
		o := res.Outcomes[id-1]
		if o.EvictedTime() <= 0 {
			t.Fatalf("task %d was not interrupted by the eviction: %+v", id, o.Attempts)
		}
	}
	if got, want := pol.observed, []int{1, 2, 3, 4, 5, 6}; !slices.Equal(got, want) {
		t.Fatalf("completion order = %v, want %v", got, want)
	}
}
