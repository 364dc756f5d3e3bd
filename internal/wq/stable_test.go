package wq

import (
	"fmt"
	"testing"

	"dynalloc/internal/allocator"
	"dynalloc/internal/resources"
	"dynalloc/internal/workflow"
)

// sizedPolicy allocates a fixed vector per category, reports every category
// stable, and counts first-attempt calls per category on either entry point.
type sizedPolicy struct {
	sizes map[string]resources.Vector
	calls map[string]int
}

func (p *sizedPolicy) Allocate(cat string, _ int) resources.Vector {
	p.calls[cat]++
	return p.sizes[cat]
}

func (p *sizedPolicy) AllocateStable(cat string, id int) (resources.Vector, bool) {
	return p.Allocate(cat, id), true
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

// TestDeepQueueOnePolicyCallPerCategoryPerPass queues 200 first attempts of
// two interleaved categories behind one worker that holds a few of them (the
// narrow ones backfill past a wide one that does not fit), and completes them
// one result (= one dispatch pass) at a time. With the capability the manager
// asks the policy once per category per pass; a wrapper that embeds the
// Policy interface hides the capability and keeps seeing a call for every
// queued first attempt on every pass. Both dispatch the same tasks to the
// same worker in the same order.
func TestDeepQueueOnePolicyCallPerCategoryPerPass(t *testing.T) {
	const tasks = 200
	cats := [2]string{"wide", "narrow"}
	run := func(hide bool) (order dispatchLog, perPass [][2]int) {
		pol := &sizedPolicy{
			sizes: map[string]resources.Vector{
				"wide":   resources.New(8, 1000, 1000, resources.Unlimited),
				"narrow": resources.New(3, 1000, 1000, resources.Unlimited),
			},
			calls: map[string]int{},
		}
		var policy allocator.Policy = pol
		if hide {
			policy = recordingPolicy{Policy: pol, onAllocate: func(string) {}}
		}
		m := NewManager(policy, WithTracer(&order))
		pass := func(f func()) {
			before := [2]int{pol.calls[cats[0]], pol.calls[cats[1]]}
			f()
			perPass = append(perPass, [2]int{pol.calls[cats[0]] - before[0], pol.calls[cats[1]] - before[1]})
		}
		m.mu.Lock()
		w := stageWorker(m, resources.PaperWorker())
		for i := 0; i < tasks; i++ {
			m.registerTaskLocked(workflow.Task{Category: cats[i%2], Consumption: resources.New(1, 100, 100, 10)}, nil, true)
		}
		pass(m.dispatchLocked)
		m.mu.Unlock()
		for len(w.running) > 0 {
			oldest := 0
			for id := range w.running {
				if oldest == 0 || id < oldest {
					oldest = id
				}
			}
			pass(func() {
				m.handleResult(w, Message{Type: MsgResult, TaskID: oldest, Status: StatusSuccess, Duration: 1})
			})
		}
		if s := m.Stats(); s.Successes != tasks {
			t.Fatalf("hide=%v: %d of %d tasks completed", hide, s.Successes, tasks)
		}
		return order, perPass
	}

	stableOrder, stablePasses := run(false)
	opaqueOrder, opaquePasses := run(true)
	if fmt.Sprint(stableOrder) != fmt.Sprint(opaqueOrder) {
		t.Errorf("dispatch order differs:\n capability %v\n hidden     %v", stableOrder, opaqueOrder)
	}
	if len(stableOrder) != tasks {
		t.Errorf("%d dispatches, want %d", len(stableOrder), tasks)
	}
	for i, p := range stablePasses {
		if p[0] > 1 || p[1] > 1 {
			t.Fatalf("pass %d made %d + %d policy calls, want at most one per category", i, p[0], p[1])
		}
	}
	if p := stablePasses[0]; p != [2]int{1, 1} {
		t.Errorf("first pass over the full queue made %v policy calls, want one per category", p)
	}
	if p := opaquePasses[0]; p != [2]int{tasks / 2, tasks / 2} {
		t.Errorf("first pass with the capability hidden made %v policy calls, want one per queued task", p)
	}
}
