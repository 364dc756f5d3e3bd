package sched

import (
	"math"

	"dynalloc/internal/resources"
)

// pruneSlack is the relative slack added to per-node headroom upper bounds.
// A worker admits an allocation when fl(used+alloc) <= limit; rewriting that
// as alloc <= limit-used for pruning introduces up to ~3 ulps of rounding
// difference, so each bound carries slack of limit*pruneSlack (≈ 4.5 ulps)
// to guarantee the index never prunes away a worker the exact comparison
// would admit. False positives are harmless: the leaf re-checks with
// Worker.Fits, the same comparison a linear scan uses.
const pruneSlack = 1e-15

// capIndex is a segment tree over worker slots. Slots are handed out in Add
// order, which is ascending worker ID, and a rebuild renumbers the alive
// workers without reordering them, so slot order is always ID order. Each
// node aggregates, over the alive workers in its subtree:
//
//   - hubC/hubM/hubD: an upper bound on per-kind headroom (limit - used,
//     plus pruneSlack), so a subtree with hub < alloc on any kind cannot
//     contain a fitting worker and is skipped;
//   - smax/smin: the exact max/min of the placement score (free memory,
//     computed with the same expression a linear scan uses), driving
//     branch-and-bound for worst-fit and best-fit.
//
// Queries descend left-first, so ties resolve to the lowest slot — the
// worker a linear scan over the alive chain returns. Updates on
// place/release/add/evict are O(log W). First-fit probes are O(log W) (one
// root-to-leaf descent with O(1) subtree rejections), and worst-fit behaves
// the same in practice because smax steers the descent straight to the
// maximum. Best-fit is exact branch-and-bound: smin keeps pointing into
// subtrees of workers too full to fit, so with many near-full workers it can
// degenerate toward the O(W) scan it replaced — but never asymptotically
// worse, and the golden runs show typical pools prune well.
//
// An evicted worker's slot stays empty until the slots run out; the tree is
// then rebuilt over the alive workers only, doubling when they fill half of
// it. A rebuild is O(size) and at least size/2 inserts apart, so the tree
// costs O(alive) space and amortised O(1) per insert however many worker IDs
// a churning pool has issued. The zero value is an empty index.
type capIndex struct {
	size int       // leaf count, a power of two (or zero); node k's children are 2k and 2k+1
	n    int       // slots handed out since the last rebuild; the next insert takes slot n
	ws   []*Worker // leaf slot -> alive worker, nil when evicted or not yet handed out
	hubC []float64 // headroom upper bound, cores
	hubM []float64 // headroom upper bound, memory
	hubD []float64 // headroom upper bound, disk
	smax []float64 // max free-memory score in subtree (-Inf when empty)
	smin []float64 // min free-memory score in subtree (+Inf when empty)
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
		n := 2 * ci.size // nodes per aggregate; all five share one array
		nodes := make([]float64, 5*n)
		for i, a := range []*[]float64{&ci.hubC, &ci.hubM, &ci.hubD, &ci.smax, &ci.smin} {
			*a = nodes[i*n : (i+1)*n : (i+1)*n]
		}
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
		ci.smax[k], ci.smin[k] = math.Inf(-1), math.Inf(1)
		return
	}
	ci.hubC[k] = w.limit[resources.Cores] - w.used[resources.Cores] + w.limit[resources.Cores]*pruneSlack
	ci.hubM[k] = w.limit[resources.Memory] - w.used[resources.Memory] + w.limit[resources.Memory]*pruneSlack
	ci.hubD[k] = w.limit[resources.Disk] - w.used[resources.Disk] + w.limit[resources.Disk]*pruneSlack
	free := w.freeMemory()
	ci.smax[k], ci.smin[k] = free, free
}

// pull recomputes internal node k from its children.
func (ci *capIndex) pull(k int) {
	l, r := 2*k, 2*k+1
	ci.hubC[k] = max(ci.hubC[l], ci.hubC[r])
	ci.hubM[k] = max(ci.hubM[l], ci.hubM[r])
	ci.hubD[k] = max(ci.hubD[l], ci.hubD[r])
	ci.smax[k] = max(ci.smax[l], ci.smax[r])
	ci.smin[k] = min(ci.smin[l], ci.smin[r])
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

// worstFit returns the fitting worker with the most free memory (ties to
// the lowest slot), or nil.
func (ci *capIndex) worstFit(alloc resources.Vector) *Worker {
	w, _ := ci.worstFitRec(1, alloc, nil, 0)
	return w
}

func (ci *capIndex) worstFitRec(k int, alloc resources.Vector, best *Worker, bestScore float64) (*Worker, float64) {
	if !ci.admits(k, alloc) {
		return best, bestScore
	}
	// Strict improvement only (matching the linear scan's tie-to-earliest),
	// so a subtree whose score maximum does not exceed the incumbent is dead.
	if best != nil && ci.smax[k] <= bestScore {
		return best, bestScore
	}
	if k >= ci.size {
		w := ci.ws[k-ci.size]
		if w == nil || !w.Fits(alloc) {
			return best, bestScore
		}
		free := w.freeMemory()
		if best == nil || free > bestScore {
			return w, free
		}
		return best, bestScore
	}
	best, bestScore = ci.worstFitRec(2*k, alloc, best, bestScore)
	return ci.worstFitRec(2*k+1, alloc, best, bestScore)
}

// bestFit returns the fitting worker with the least free memory (ties to
// the lowest slot), or nil.
func (ci *capIndex) bestFit(alloc resources.Vector) *Worker {
	w, _ := ci.bestFitRec(1, alloc, nil, 0)
	return w
}

func (ci *capIndex) bestFitRec(k int, alloc resources.Vector, best *Worker, bestScore float64) (*Worker, float64) {
	if !ci.admits(k, alloc) {
		return best, bestScore
	}
	if best != nil && ci.smin[k] >= bestScore {
		return best, bestScore
	}
	if k >= ci.size {
		w := ci.ws[k-ci.size]
		if w == nil || !w.Fits(alloc) {
			return best, bestScore
		}
		free := w.freeMemory()
		if best == nil || free < bestScore {
			return w, free
		}
		return best, bestScore
	}
	best, bestScore = ci.bestFitRec(2*k, alloc, best, bestScore)
	return ci.bestFitRec(2*k+1, alloc, best, bestScore)
}
