package sched

import "dynalloc/internal/resources"

// pruneSlack is the relative slack added to per-node headroom upper bounds.
// A worker admits an allocation when fl(used+alloc) <= limit; rewriting that
// as alloc <= limit-used for pruning introduces up to ~3 ulps of rounding
// difference, so each bound carries slack of limit*pruneSlack (≈ 4.5 ulps)
// to guarantee the index never prunes away a worker the exact comparison
// would admit. False positives are harmless: the leaf re-checks with
// Worker.Fits, the same comparison a linear scan uses.
const pruneSlack = 1e-15

// capIndex is the alive set and a headroom tree over it. ws holds the alive
// workers in slots handed out in Add order, which is ascending worker ID,
// and a rebuild renumbers them without reordering, so slot order is always
// ID order and ws[:n] is the alive set in that order, with a nil in each
// slot evicted since the last rebuild.
//
// The tree is a segment tree over the slots whose node k holds, per kind, an
// upper bound on the headroom (limit - used, plus pruneSlack) of the alive
// workers under it (hubC/hubM/hubD), so a subtree with hub < alloc on any
// kind cannot contain a fitting worker. firstFit descends left-first and
// skips such subtrees: O(log W) per probe, and it returns the lowest-slot
// fitting worker, the one a scan of ws[:n] would. Scored placements read no
// aggregate; Pool.Pick scans ws[:n] for them. Updates on
// place/release/add/evict are O(log W).
//
// An evicted worker's slot stays empty until the slots run out; the tree is
// then rebuilt over the alive workers only, doubling when they fill half of
// it. A rebuild is O(size) and at least size/2 inserts apart, so the tree's
// size stays O(peak alive) and an insert costs amortised O(1) however many
// worker IDs a churning pool has issued. The zero value is an empty index.
type capIndex struct {
	size int       // leaf count, a power of two (or zero); node k's children are 2k and 2k+1
	n    int       // slots handed out since the last rebuild; the next insert takes slot n
	ws   []*Worker // leaf slot -> alive worker, nil when evicted or not yet handed out
	hubC []float64 // headroom upper bound, cores
	hubM []float64 // headroom upper bound, memory
	hubD []float64 // headroom upper bound, disk
}

// insert gives w the next slot, rebuilding first when none is left.
func (ci *capIndex) insert(w *Worker) {
	if ci.n == ci.size {
		ci.rebuild()
	}
	w.slot = ci.n
	ci.n++
	ci.ws[w.slot] = w
	ci.update(w)
}

// remove empties w's slot.
func (ci *capIndex) remove(w *Worker) {
	ci.ws[w.slot] = nil
	ci.update(w)
	w.slot = -1
}

// rebuild renumbers the alive workers into slots [0, alive) in their current
// order, doubles the tree when they fill half of it, and recomputes every
// node.
func (ci *capIndex) rebuild() {
	alive := 0
	for _, w := range ci.ws[:ci.n] {
		if w != nil {
			ci.ws[alive], w.slot = w, alive
			alive++
		}
	}
	clear(ci.ws[alive:])
	ci.n = alive
	if 2*alive >= ci.size {
		ci.size = max(16, 2*ci.size)
		ci.ws = append(make([]*Worker, 0, ci.size), ci.ws[:alive]...)[:ci.size]
		n := 2 * ci.size // nodes per kind; the three share one array
		nodes := make([]float64, 3*n)
		ci.hubC, ci.hubM, ci.hubD = nodes[:n:n], nodes[n:2*n:2*n], nodes[2*n:]
	}
	for slot := range ci.ws {
		ci.setLeaf(slot)
	}
	for k := ci.size - 1; k >= 1; k-- {
		ci.pull(k)
	}
}

// setLeaf recomputes the leaf of slot from the worker in it, if any.
func (ci *capIndex) setLeaf(slot int) {
	k := ci.size + slot
	w := ci.ws[slot]
	if w == nil {
		ci.hubC[k], ci.hubM[k], ci.hubD[k] = -1, -1, -1
		return
	}
	ci.hubC[k] = w.limit[resources.Cores] - w.used[resources.Cores] + w.limit[resources.Cores]*pruneSlack
	ci.hubM[k] = w.limit[resources.Memory] - w.used[resources.Memory] + w.limit[resources.Memory]*pruneSlack
	ci.hubD[k] = w.limit[resources.Disk] - w.used[resources.Disk] + w.limit[resources.Disk]*pruneSlack
}

// pull recomputes internal node k from its children.
func (ci *capIndex) pull(k int) {
	l, r := 2*k, 2*k+1
	ci.hubC[k] = max(ci.hubC[l], ci.hubC[r])
	ci.hubM[k] = max(ci.hubM[l], ci.hubM[r])
	ci.hubD[k] = max(ci.hubD[l], ci.hubD[r])
}

// update refreshes w's slot after any change to its used vector or to
// whether the slot still holds it. Cost: O(log W).
func (ci *capIndex) update(w *Worker) {
	ci.setLeaf(w.slot)
	for k := (ci.size + w.slot) >> 1; k >= 1; k >>= 1 {
		ci.pull(k)
	}
}

// admits reports whether subtree k may contain a worker fitting alloc. Only
// a conservative upper-bound check: a true result still needs the exact
// leaf-level fits.
func (ci *capIndex) admits(k int, alloc resources.Vector) bool {
	return alloc[resources.Cores] <= ci.hubC[k] &&
		alloc[resources.Memory] <= ci.hubM[k] &&
		alloc[resources.Disk] <= ci.hubD[k]
}

// firstFit returns the lowest-slot alive worker that fits alloc, or nil.
func (ci *capIndex) firstFit(alloc resources.Vector) *Worker {
	if !ci.admits(1, alloc) {
		return nil
	}
	return ci.firstFitRec(1, alloc)
}

func (ci *capIndex) firstFitRec(k int, alloc resources.Vector) *Worker {
	if k >= ci.size {
		// Leaf: decide with the exact admission comparison; the bounds may
		// have let a near-boundary non-fit through.
		if w := ci.ws[k-ci.size]; w != nil && w.Fits(alloc) {
			return w
		}
		return nil
	}
	if ci.admits(2*k, alloc) {
		if w := ci.firstFitRec(2*k, alloc); w != nil {
			return w
		}
	}
	if ci.admits(2*k+1, alloc) {
		return ci.firstFitRec(2*k+1, alloc)
	}
	return nil
}
