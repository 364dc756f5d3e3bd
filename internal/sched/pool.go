// Package sched is the scheduler core every engine drives: the worker capacity
// ledger, the placement index over it, the ready queue, the dispatch pass that
// allocates at dispatch time and places what fits, and the settle transitions
// that end an attempt, keep each task's attempt ledger and make the Observe or
// Retry the ending owes. It is deterministic and does no I/O: for the same
// sequence of calls it makes the same decisions, and it is the only caller of
// the policy. It holds tasks, not keys, so nothing is ever looked up: the
// drivers own time, transport and task storage (a submitted task stays at its
// address until it is terminal) — internal/sim calls it from discrete events,
// internal/wq under the manager lock from decoded frames, the sequential
// drivers through Task.RunAlone.
package sched

import (
	"cmp"
	"fmt"
	"slices"

	"dynalloc/internal/resources"
)

// capacitySlack is the relative tolerance applied to worker capacity when
// deciding whether an allocation fits.
const capacitySlack = 1e-9

// Worker is one worker's row in the capacity ledger.
type Worker struct {
	id       int
	capacity resources.Vector
	// limit is capacity scaled by (1 + capacitySlack), precomputed once at
	// Add so admission is three comparisons instead of re-deriving the slack
	// product per kind on every Fits probe.
	limit resources.Vector
	used  resources.Vector
	// held is the tasks the worker holds, in no order (t.at indexes it); it
	// starts on inline, so up to eight cost no allocation of their own.
	held   []*Task
	inline [8]*Task
	// slot is the worker's leaf in the placement index, -1 once evicted.
	slot int
}

// ID returns the worker's driver-assigned ID.
func (w *Worker) ID() int { return w.id }

// Alive reports whether the worker is still in the ledger.
func (w *Worker) Alive() bool { return w.slot >= 0 }

// Running returns the number of tasks the worker holds.
func (w *Worker) Running() int { return len(w.held) }

// Holds reports whether the worker holds t: whether a result it sends for t
// would be honoured rather than dropped as stale.
func (w *Worker) Holds(t *Task) bool { return t.worker == w }

// Fits reports whether alloc fits into the worker's free capacity. The
// comparisons are bit-identical to `used+alloc > capacity*(1+capacitySlack)`
// with the product precomputed, and unrolled over the allocated kinds so the
// hot path performs no slice allocation.
func (w *Worker) Fits(alloc resources.Vector) bool {
	return w.used[resources.Cores]+alloc[resources.Cores] <= w.limit[resources.Cores] &&
		w.used[resources.Memory]+alloc[resources.Memory] <= w.limit[resources.Memory] &&
		w.used[resources.Disk]+alloc[resources.Disk] <= w.limit[resources.Disk]
}

// freeMemory is the worst-fit / best-fit placement score.
func (w *Worker) freeMemory() float64 {
	return w.capacity.Get(resources.Memory) - w.used.Get(resources.Memory)
}

// Pool is the capacity ledger: the alive workers in ascending-ID order (the
// placement index's slots), what each holds, and the headroom tree over
// their free capacity. The zero value is an empty pool.
type Pool struct {
	alive    int
	inFlight int
	idx      capIndex
}

// Alive returns the number of workers in the ledger.
func (p *Pool) Alive() int { return p.alive }

// InFlight returns the number of tasks held across all alive workers.
func (p *Pool) InFlight() int { return p.inFlight }

// AppendWorkers appends the alive workers to dst in ascending-ID order.
func (p *Pool) AppendWorkers(dst []*Worker) []*Worker {
	for _, w := range p.idx.ws[:p.idx.n] {
		if w != nil {
			dst = append(dst, w)
		}
	}
	return dst
}

// Add enters a worker of the given capacity. IDs must ascend from one Add to
// the next (both drivers issue them in join order), so appending keeps the
// index slots sorted by ID without an insertion search.
func (p *Pool) Add(id int, capacity resources.Vector) *Worker {
	w := &Worker{id: id, capacity: capacity}
	w.held = w.inline[:0]
	for k := range capacity {
		w.limit[k] = capacity[k] * (1 + capacitySlack)
	}
	p.alive++
	p.idx.insert(w)
	return w
}

// Place charges t.Alloc to w and enters t, held by no worker, in w's row. The
// caller has established that it fits (Pick returns only workers that do);
// over-packing a worker is a bug.
func (p *Pool) Place(w *Worker, t *Task) {
	if !w.Fits(t.Alloc) {
		panic(fmt.Sprintf("sched: worker %d over-packed: used %v + alloc %v > capacity %v", w.id, w.used, t.Alloc, w.capacity))
	}
	w.used = w.used.Add(t.Alloc.With(resources.Time, 0))
	t.worker, t.at = w, len(w.held)
	w.held = append(w.held, t)
	p.inFlight++
	p.idx.update(w)
}

// Release frees what w holds for t; it reports false when w does not hold t
// (a duplicate result, or a worker already evicted).
func (p *Pool) Release(w *Worker, t *Task) bool {
	if t.worker != w {
		return false
	}
	last := w.held[len(w.held)-1]
	w.held[t.at], last.at = last, t.at
	w.held = w.held[:len(w.held)-1]
	t.worker = nil
	p.inFlight--
	w.used = w.used.Sub(t.Alloc.With(resources.Time, 0))
	// Guard against float drift accumulating below zero.
	for k := range w.used {
		if w.used[k] < 0 && w.used[k] > -1e-6 {
			w.used[k] = 0
		}
	}
	p.idx.update(w)
	return true
}

// Evict removes w from the ledger and appends the tasks it held to buf in
// ascending key order, so the requeue is the same whatever order they were
// placed in. Evicting twice is a no-op.
func (p *Pool) Evict(w *Worker, buf []*Task) []*Task {
	if !w.Alive() {
		return buf
	}
	p.alive--
	p.idx.remove(w)
	n := len(buf)
	buf = append(buf, w.held...)
	slices.SortFunc(buf[n:], func(a, b *Task) int { return cmp.Compare(a.key, b.key) })
	for _, t := range buf[n:] {
		t.worker = nil
	}
	p.inFlight -= len(w.held)
	clear(w.held)
	w.held = nil // the worker is gone; it keeps no task alive
	w.used = resources.Vector{}
	return buf
}
