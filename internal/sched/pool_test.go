package sched

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"dynalloc/internal/resources"
)

// pickLinear returns the worker place chooses among those that fit, or nil,
// by a linear scan over the pool's alive workers. It is the reference
// semantics for Pool.Pick: the property tests assert that every first-fit
// descent of the capacity index returns exactly the worker this scan picks.
func pickLinear(p *Pool, place Placement, alloc resources.Vector, taskID int, score func(workerID, taskID int) float64) *Worker {
	var chosen *Worker
	var chosenScore float64
	for _, w := range p.AppendWorkers(nil) {
		if !w.Fits(alloc) {
			continue
		}
		var s float64
		switch place {
		case FirstFit:
			return w
		case WorstFit:
			s = w.freeMemory()
		case BestFit:
			s = -w.freeMemory()
		case Locality:
			if score != nil {
				s = score(w.id, taskID)
			}
		}
		if chosen == nil || s > chosenScore {
			chosen, chosenScore = w, s
		}
	}
	return chosen
}

func workerID(w *Worker) int {
	if w == nil {
		return -1
	}
	return w.id
}

// checkFirstFit asserts the index's first-fit descent and the linear scan
// agree for alloc — same pointer, including nil.
func checkFirstFit(t *testing.T, p *Pool, alloc resources.Vector, when string) {
	t.Helper()
	if got, want := p.Pick(FirstFit, alloc, 0, nil), pickLinear(p, FirstFit, alloc, 0, nil); got != want {
		t.Fatalf("%s: first-fit diverged for alloc %v: index=%d linear=%d", when, alloc, workerID(got), workerID(want))
	}
}

// TestIndexMatchesLinearScan is the equivalence property behind the O(log W)
// placement path: under an arbitrary churn of joins, evictions, placements and
// releases, every first-fit query on the capacity index must return exactly
// the worker the reference linear scan over the alive workers returns.
// The live engine adds two things the simulator's fixed schedule never had:
// workers of different shapes in one pool, and worker IDs that keep growing
// while the alive set stays small, so the index must renumber its slots —
// the run has to cross that more than once.
func TestIndexMatchesLinearScan(t *testing.T) {
	shapes := []resources.Vector{
		resources.PaperWorker(),
		resources.New(4, 8*1024, 200*1024, resources.Unlimited),
		resources.New(64, 16*1024, 16*1024, resources.Unlimited),
		resources.New(1, 256*1024, 1024, resources.Unlimited),
	}
	r := rand.New(rand.NewPCG(11, 17))
	var p Pool
	var alive []*Worker
	nextID, nextKey := 0, 0
	rebuilds, grows := 0, 0

	randAlloc := func(shape resources.Vector) resources.Vector {
		// Mix tiny, mid, and near-capacity allocations so probes regularly
		// straddle the fits boundary.
		f := []float64{0.01, 0.1, 0.3, 0.5, 0.9, 1.0}[r.IntN(6)]
		return resources.New(
			shape.Get(resources.Cores)*f,
			shape.Get(resources.Memory)*f,
			shape.Get(resources.Disk)*f,
			resources.Unlimited)
	}

	for step := 0; step < 6000; step++ {
		switch op := r.IntN(10); {
		case op < 3 && len(alive) < 40: // join
			n, size := p.idx.n, p.idx.size
			alive = append(alive, p.Add(nextID, shapes[r.IntN(len(shapes))]))
			nextID += 1 + r.IntN(3) // IDs ascend, not necessarily densely
			if n == size {
				rebuilds++
				if p.idx.size > size {
					grows++
				}
			}
		case op < 5 && len(alive) > 0: // eviction
			i := r.IntN(len(alive))
			held := keysOf(alive[i].held)
			slices.Sort(held)
			if got := keysOf(p.Evict(alive[i], nil)); !equalInts(got, held) {
				t.Fatalf("step %d: Evict returned %v, worker held %v", step, got, held)
			}
			alive = append(alive[:i], alive[i+1:]...)
		case len(alive) > 0: // place or release on a random worker
			w := alive[r.IntN(len(alive))]
			alloc := randAlloc(w.capacity)
			if r.IntN(2) == 0 && w.Fits(alloc) {
				t := keyed(nextKey)
				t.Alloc = alloc
				p.Place(w, t)
				nextKey++
			} else {
				for w.Running() > 0 { // drain the worker, front first
					p.Release(w, w.held[0])
				}
			}
		}
		if p.Alive() != len(alive) {
			t.Fatalf("step %d: Alive() = %d, want %d", step, p.Alive(), len(alive))
		}
		for i, w := range p.AppendWorkers(nil) {
			if w != alive[i] || w.slot < 0 || p.idx.ws[w.slot] != w || (i > 0 && w.slot <= alive[i-1].slot) {
				t.Fatalf("step %d: alive position %d holds worker %d in slot %d", step, i, w.id, w.slot)
			}
		}
		checkFirstFit(t, &p, randAlloc(shapes[r.IntN(len(shapes))]), fmt.Sprint("step ", step))
	}
	if compactions := rebuilds - grows; compactions < 2 || grows < 1 {
		t.Fatalf("run crossed %d slot compactions and %d doublings; want at least 2 and 1", compactions, grows)
	}
	if p.idx.size > 128 {
		t.Errorf("index grew to %d leaves for at most 40 alive workers out of %d IDs", p.idx.size, nextID)
	}
}

// TestIndexBoundaryAllocations drives allocations right at the slack
// boundary, where conservative pruning and the exact leaf check may
// disagree transiently: the index must still agree with the linear scan.
func TestIndexBoundaryAllocations(t *testing.T) {
	shape := resources.New(16, 64000, 64000, resources.Unlimited)
	var p Pool
	var ws []*Worker
	for i := 0; i < 4; i++ {
		ws = append(ws, p.Add(i, shape))
	}
	// Fill worker 0 to exactly capacity, worker 1 to capacity*(1+slack)
	// (the admission limit), worker 2 just beyond it.
	ws[0].used = shape.With(resources.Time, 0)
	ws[1].used = ws[1].limit.With(resources.Time, 0)
	ws[2].used = ws[2].limit.Scale(1+1e-9).With(resources.Time, 0)
	for _, w := range ws {
		p.idx.update(w)
	}
	for _, alloc := range []resources.Vector{
		resources.New(0, 0, 0, 0),
		resources.New(1e-12, 1e-12, 1e-12, 0),
		resources.New(0.5, 2000, 2000, resources.Unlimited),
		shape.With(resources.Time, resources.Unlimited),
	} {
		checkFirstFit(t, &p, alloc, "boundary")
	}
}

// TestPickPolicies pins what each placement means on a pool small enough to
// read: worker 0 moderately loaded, 1 nearly full, 2 nearly empty.
func TestPickPolicies(t *testing.T) {
	shape := resources.New(16, 64*1024, 64*1024, resources.Unlimited)
	var p Pool
	var ws []*Worker
	for id, usedMem := range []float64{30000, 60000, 1000} {
		w := p.Add(id, shape)
		t := keyed(id)
		t.Alloc = resources.New(0, usedMem, 0, 0)
		p.Place(w, t)
		ws = append(ws, w)
	}
	alloc := resources.New(1, 2000, 100, resources.Unlimited)
	cached := func(workerID, taskID int) float64 { return map[int]float64{1: 400}[workerID] }
	for _, tc := range []struct {
		place Placement
		want  int
	}{{FirstFit, 0}, {WorstFit, 2}, {BestFit, 1}, {Locality, 1}} {
		got := p.Pick(tc.place, alloc, 7, cached)
		if workerID(got) != tc.want || got != pickLinear(&p, tc.place, alloc, 7, cached) {
			t.Errorf("%s chose %d, want %d", tc.place, workerID(got), tc.want)
		}
	}
	if w := p.Pick(Locality, alloc, 7, nil); workerID(w) != 0 {
		t.Errorf("locality without a score chose %d, want first-fit order", workerID(w))
	}
	// Nothing fits: nil.
	huge := resources.New(1, 65000, 100, resources.Unlimited)
	for _, place := range []Placement{FirstFit, WorstFit, BestFit, Locality} {
		if w := p.Pick(place, huge, 7, cached); w != nil {
			t.Errorf("%s placed an impossible allocation on %d", place, w.id)
		}
	}
	// An evicted worker leaves the scan set entirely.
	p.Evict(ws[2], nil)
	if w := p.Pick(WorstFit, alloc, 7, nil); workerID(w) != 0 {
		t.Errorf("worst-fit after evicting the emptiest worker chose %d, want 0", workerID(w))
	}
	if Placement(99).String() == "" || p.Pick(Placement(99), alloc, 7, nil) != nil {
		t.Error("an unknown placement should stringify and place nothing")
	}

	// Ties go to the lower ID: workers 1 and 2 have the most free memory,
	// 3 and 4 the least, and 1 and 4 score alike and highest.
	var tied Pool
	for id, usedMem := range []float64{30000, 1000, 1000, 60000, 60000} {
		t := keyed(10 + id)
		t.Alloc = resources.New(0, usedMem, 0, 0)
		tied.Place(tied.Add(id, shape), t)
	}
	both := func(workerID, taskID int) float64 { return map[int]float64{1: 400, 4: 400}[workerID] }
	for _, tc := range []struct {
		place Placement
		want  int
	}{{WorstFit, 1}, {BestFit, 3}, {Locality, 1}} {
		if got := tied.Pick(tc.place, alloc, 7, both); workerID(got) != tc.want {
			t.Errorf("%s broke a tie toward %d, want %d", tc.place, workerID(got), tc.want)
		}
	}
}

// TestLedgerReleaseAndEvict pins the ledger's edge cases: a release removes
// the task from anywhere in the worker's row and keeps the back-pointers of
// the rest, a release of something not held is refused, used capacity that
// drifts a hair below zero is clamped, and an evicted worker holds nothing and
// cannot be evicted again.
func TestLedgerReleaseAndEvict(t *testing.T) {
	var p Pool
	w := p.Add(3, resources.PaperWorker())
	a := resources.New(0.1, 100, 100, 60)
	ts := keyedAll(1, 2, 3)
	for i, task := range ts {
		task.Alloc = a.Scale(float64(i + 1))
		p.Place(w, task)
	}
	if !w.Holds(ts[1]) || p.InFlight() != 3 || w.Running() != 3 {
		t.Fatalf("after three placements: holds %v, in flight %d, running %d", w.Holds(ts[1]), p.InFlight(), w.Running())
	}
	if !p.Release(w, ts[0]) || w.Holds(ts[0]) {
		t.Fatal("the first placement was not released")
	}
	if got := keysOf(w.held); !equalInts(got, []int{3, 2}) || ts[2].at != 0 || ts[1].at != 1 {
		t.Fatalf("after releasing the front: row %v, at %d %d; want [3 2], 0 1", got, ts[2].at, ts[1].at)
	}
	if p.Release(w, keyed(9)) || p.Release(w, ts[0]) {
		t.Error("released a task the worker does not hold")
	}
	w.used[resources.Cores] -= 1e-9 // as if earlier float sums had drifted
	p.Release(w, ts[1])
	p.Release(w, ts[2])
	if w.used != (resources.Vector{}) {
		t.Errorf("used after releasing everything = %v, want zero (drift clamped)", w.used)
	}
	five := keyed(5)
	five.Alloc = a
	p.Place(w, five)
	if got := keysOf(p.Evict(w, keyedAll(42))); !equalInts(got, []int{42, 5}) {
		t.Errorf("Evict appended %v, want [42 5]", got)
	}
	if w.Alive() || p.Alive() != 0 || p.InFlight() != 0 || len(p.AppendWorkers(nil)) != 0 || w.Holds(five) {
		t.Error("evicted worker still in the ledger")
	}
	if p.Release(w, five) {
		t.Error("released from an evicted worker")
	}
	if got := p.Evict(w, nil); got != nil {
		t.Errorf("second Evict returned %v", got)
	}
}
