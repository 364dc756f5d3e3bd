package sched

import (
	"testing"

	"dynalloc/internal/allocator"
	"dynalloc/internal/dist"
	"dynalloc/internal/resources"
)

// BenchmarkPlacementIndex100k probes the capacity index at 100k worker
// slots under a mixed load (uniform fill, so ~1 in 9 workers is too full
// for the probe allocation). Updates and first-fit/worst-fit queries are
// O(log W); best-fit is exact branch-and-bound — its score lower bound
// keeps pointing into subtrees of too-full workers, so under mixed loads
// it degenerates toward the cost of the linear scan it replaced. The
// sub-runs keep those costs separately visible in the trajectory.
func BenchmarkPlacementIndex100k(b *testing.B) {
	const n = 100_000
	shape := resources.PaperWorker()
	var p Pool
	ci := &p.idx
	r := dist.NewRand(7)
	workers := make([]*Worker, n)
	for i := range workers {
		w := p.Add(i, shape)
		w.used = shape.Scale(r.Float64() * 0.95)
		workers[i] = w
		ci.update(w)
	}
	alloc := resources.New(3, 12000, 6000, 0)
	b.Run("update", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w := workers[int(uint64(i)*2654435761%n)]
			w.used = shape.Scale(float64(i%97) / 100)
			ci.update(w)
		}
	})
	probe := func(fit func(resources.Vector) *Worker) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if fit(alloc) == nil {
					b.Fatal("index lost every worker")
				}
			}
		}
	}
	b.Run("first-fit", probe(ci.firstFit))
	b.Run("worst-fit", probe(ci.worstFit))
	b.Run("best-fit", probe(ci.bestFit))
}

// oneCore is a stable policy that gives every task one core.
type oneCore struct{ allocator.Policy }

func (oneCore) Allocate(string, int) resources.Vector {
	return resources.New(1, 100, 100, resources.Unlimited)
}

func (p oneCore) AllocateStable(cat string, id int) (resources.Vector, bool) {
	return p.Allocate(cat, id), true
}

// deepQueue is wq-maxseen-deepq-churn's steady state in miniature: one
// 16-core worker kept full and 256 first attempts of one stable category
// queued behind it. Each step ends the oldest attempt, which frees one slot,
// resubmits its task as a fresh first attempt at the back, and runs a pass.
type deepQueue struct {
	c       *Core
	w       *Worker
	policy  allocator.Policy
	tasks   []Task
	running Queue // keys on the worker, oldest first
	scanned int   // queued keys the passes resolved
}

func newDeepQueue(policy allocator.Policy) *deepQueue {
	const slots, queued = 16, 256
	d := &deepQueue{policy: policy, tasks: make([]Task, slots+queued)}
	d.c = New(FirstFit, 0, Driver{
		Lookup: func(key int) *Task {
			d.scanned++
			return &d.tasks[key]
		},
		Start: func(key int, _ *Task, _ *Worker) { d.running.PushBack(key) },
	})
	d.w = d.c.Add(0, resources.New(slots, 1e6, 1e6, resources.Unlimited))
	for key := range d.tasks {
		d.tasks[key] = Task{ID: key, Category: "deep"}
		d.c.Submit(key, &d.tasks[key])
	}
	d.c.Dispatch(d.policy)
	return d
}

func (d *deepQueue) step() {
	key := d.running.At(0)
	d.running.Cut(0, 1)
	d.c.Release(d.w, key)
	d.tasks[key] = Task{ID: key, Category: "deep"}
	d.c.Submit(key, &d.tasks[key])
	d.c.Dispatch(d.policy)
}

// BenchmarkDispatchDeepQueue measures one dispatch pass over a deep queue of
// one stable category with one slot free, against the policy as is and behind
// a wrapper that embeds the Policy interface and so hides its StablePolicy
// capability, the shape of sim-maxseen-churn's pass. scanned/pass is how many
// queued keys a pass resolves. Seen stable, the pass places the head and
// stops at the next entry's miss: 2 however deep the queue (held + placed +
// categories, with nothing held). Wrapped, it cannot know the category is
// stable, so it walks the whole queue with a policy call and a probe per
// entry: 257.
func BenchmarkDispatchDeepQueue(b *testing.B) {
	for _, bc := range []struct {
		name   string
		policy allocator.Policy
	}{{"stable", oneCore{}}, {"wrapped", plainPolicy{oneCore{}}}} {
		b.Run(bc.name, func(b *testing.B) {
			d := newDeepQueue(bc.policy)
			d.scanned = 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.step()
			}
			b.ReportMetric(float64(d.scanned)/float64(b.N), "scanned/pass")
		})
	}
}

// TestDispatchDeepQueueSteadyState pins what BenchmarkDispatchDeepQueue
// measures: each pass places exactly the freed slot's worth, resolves two
// queued keys seen stable and the whole queue wrapped, leaves the queue as deep
// as it found it, and allocates nothing.
func TestDispatchDeepQueueSteadyState(t *testing.T) {
	for _, tc := range []struct {
		name        string
		policy      allocator.Policy
		wantScanned int // per pass
	}{{"stable", oneCore{}, 2}, {"wrapped", plainPolicy{oneCore{}}, 257}} {
		d := newDeepQueue(tc.policy)
		d.scanned = 0
		allocs := testing.AllocsPerRun(100, d.step)
		if allocs != 0 {
			t.Errorf("%s: a steady-state pass allocates %v times, want 0", tc.name, allocs)
		}
		const passes = 101 // AllocsPerRun warms up once
		if d.scanned != tc.wantScanned*passes {
			t.Errorf("%s: %d passes resolved %d queued keys, want %d each", tc.name, passes, d.scanned, tc.wantScanned)
		}
		if d.c.Ready.Len() != 256 || d.c.InFlight() != 16 {
			t.Errorf("%s: after the passes: %d queued, %d in flight; want 256, 16", tc.name, d.c.Ready.Len(), d.c.InFlight())
		}
	}
}
