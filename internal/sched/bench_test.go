package sched

import (
	"testing"

	"dynalloc/internal/allocator"
	"dynalloc/internal/dist"
	"dynalloc/internal/resources"
)

// BenchmarkPlacementIndex100k probes the capacity index at 100k worker
// slots under a mixed load (uniform fill, so ~1 in 9 workers is too full
// for the probe allocation): an update and a first-fit descent, both
// O(log W).
func BenchmarkPlacementIndex100k(b *testing.B) {
	p, workers := loadedPool()
	shape := resources.PaperWorker()
	b.Run("update", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w := workers[int(uint64(i)*2654435761%uint64(len(workers)))]
			w.used = shape.Scale(float64(i%97) / 100)
			p.idx.update(w)
		}
	})
	b.Run("first-fit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if p.idx.firstFit(probeAlloc) == nil {
				b.Fatal("index lost every worker")
			}
		}
	})
}

// loadedPool is a pool of 100k paper workers, each filled to a uniform
// random share of up to 95 %, and its workers.
func loadedPool() (*Pool, []*Worker) {
	shape := resources.PaperWorker()
	p := new(Pool)
	r := dist.NewRand(7)
	workers := make([]*Worker, 100_000)
	for i := range workers {
		w := p.Add(i, shape)
		w.used = shape.Scale(r.Float64() * 0.95)
		workers[i] = w
		p.idx.update(w)
	}
	return p, workers
}

// probeAlloc is the allocation BenchmarkPlacementIndex100k places.
var probeAlloc = resources.New(3, 12000, 6000, 0)

// TestPlacementIndexAllocatesNothing pins what BenchmarkPlacementIndex100k
// measures, an update and a first-fit probe, and the scan the scored
// placements make over the same pool: none of them allocates.
func TestPlacementIndexAllocatesNothing(t *testing.T) {
	p, workers := loadedPool()
	score := func(workerID, taskID int) float64 { return float64((workerID + taskID) % 7) }
	pick := func(place Placement) func() {
		return func() {
			if p.Pick(place, probeAlloc, 3, score) == nil {
				t.Fatalf("%s placed nothing", place)
			}
		}
	}
	for name, op := range map[string]func(){
		"update":    func() { p.idx.update(workers[len(workers)/2]) },
		"first-fit": func() { p.idx.firstFit(probeAlloc) },
		"worst-fit": pick(WorstFit),
		"best-fit":  pick(BestFit),
		"locality":  pick(Locality),
	} {
		if n := testing.AllocsPerRun(10, op); n != 0 {
			t.Errorf("%s allocates %v times, want 0", name, n)
		}
	}
}

// oneCore gives every task one core under a stable algorithm's name.
type oneCore struct{ allocator.Policy }

func (oneCore) Allocate(string, int) resources.Vector {
	return resources.New(1, 100, 100, resources.Unlimited)
}

func (oneCore) Name() string { return string(allocator.MaxSeen) }

// deepQueue is wq-maxseen-deepq-churn's steady state in miniature: one
// 16-core worker kept full and 256 first attempts of one category queued
// behind it. Each step ends the oldest attempt, which frees one slot,
// resubmits its task as a fresh first attempt at the back, and runs a pass.
type deepQueue struct {
	c       *Core
	w       *Worker
	tasks   []Task
	running Queue // the tasks on the worker, oldest first
}

func newDeepQueue(policy allocator.Policy) *deepQueue {
	const slots, queued = 16, 256
	d := &deepQueue{tasks: make([]Task, slots+queued)}
	d.c = New(FirstFit, 0, policy, Driver{
		Start: func(t *Task, _ *Worker) { d.running.PushBack(t) },
	})
	d.w = d.c.Add(0, resources.New(slots, 1e6, 1e6, resources.Unlimited))
	for key := range d.tasks {
		d.tasks[key] = Task{ID: key, Category: "deep"}
		d.c.Submit(key, &d.tasks[key])
	}
	d.c.Dispatch()
	return d
}

func (d *deepQueue) step() {
	t := d.running.At(0)
	d.running.Cut(0, 1)
	d.c.Release(d.w, t)
	key := t.Key()
	*t = Task{ID: key, Category: "deep"}
	d.c.Submit(key, t)
	d.c.Dispatch()
}

// deepQueuePolicies are the policies BenchmarkDispatchDeepQueue runs, with the
// queue entries a pass reads under each: the stable policy as is; behind a
// wrapper that embeds the Policy interface and so forwards its name, the
// shape of the benchmark's sim-maxseen-churn pass; and behind one that reports
// a name of its own. Seen stable, the pass places the head and stops at the
// next entry's miss: 2 however deep the queue (held + placed + categories,
// with nothing held). Renamed, it cannot know the category is stable, so it
// walks the whole queue with a policy call and a probe per entry: 257.
var deepQueuePolicies = []struct {
	name    string
	policy  allocator.Policy
	scanned int // per pass
}{{"stable", oneCore{}, 2}, {"wrapped", plainPolicy{oneCore{}}, 2}, {"renamed", renamedPolicy{oneCore{}}, 257}}

// BenchmarkDispatchDeepQueue measures one dispatch pass over a deep queue of
// one category with one slot free, under each of deepQueuePolicies.
// scanned/pass is how many queue entries a pass reads.
func BenchmarkDispatchDeepQueue(b *testing.B) {
	for _, bc := range deepQueuePolicies {
		b.Run(bc.name, func(b *testing.B) {
			d := newDeepQueue(bc.policy)
			d.c.scanned = 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.step()
			}
			b.ReportMetric(float64(d.c.scanned)/float64(b.N), "scanned/pass")
		})
	}
}

// TestDispatchDeepQueueSteadyState pins what BenchmarkDispatchDeepQueue
// measures: each pass places exactly the freed slot's worth, reads the queue
// entries deepQueuePolicies lists, leaves the queue as deep as it found
// it, and allocates nothing.
func TestDispatchDeepQueueSteadyState(t *testing.T) {
	for _, tc := range deepQueuePolicies {
		d := newDeepQueue(tc.policy)
		d.c.scanned = 0
		allocs := testing.AllocsPerRun(100, d.step)
		if allocs != 0 {
			t.Errorf("%s: a steady-state pass allocates %v times, want 0", tc.name, allocs)
		}
		const passes = 101 // AllocsPerRun warms up once
		if d.c.scanned != tc.scanned*passes {
			t.Errorf("%s: %d passes read %d queue entries, want %d each", tc.name, passes, d.c.scanned, tc.scanned)
		}
		if d.c.Ready.Len() != 256 || d.c.InFlight() != 16 {
			t.Errorf("%s: after the passes: %d queued, %d in flight; want 256, 16", tc.name, d.c.Ready.Len(), d.c.InFlight())
		}
	}
}
