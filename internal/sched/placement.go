package sched

import (
	"fmt"

	"dynalloc/internal/resources"
)

// Placement selects which worker a dispatchable task lands on. The paper's
// Section II-D1 names scheduling-induced ordering (data locality, worker
// capacity, priorities) as a source of internal stochasticity that a robust
// allocator must tolerate; making placement pluggable lets the test suite
// and the robustness experiments vary exactly that.
type Placement int

const (
	// FirstFit places a task on the first alive worker with room — Work
	// Queue's default greedy behaviour.
	FirstFit Placement = iota
	// WorstFit places a task on the worker with the most free memory,
	// spreading load across the pool.
	WorstFit
	// BestFit places a task on the worker whose free memory is tightest,
	// packing the pool densely.
	BestFit
	// Locality places a task on the worker already caching the most of its
	// input data (as the driver's score function reports it); ties and
	// cache-less pools fall back to first-fit order. This is TaskVine's
	// scheduling preference.
	Locality
)

func (p Placement) String() string {
	switch p {
	case FirstFit:
		return "first-fit"
	case WorstFit:
		return "worst-fit"
	case BestFit:
		return "best-fit"
	case Locality:
		return "locality"
	default:
		return fmt.Sprintf("Placement(%d)", int(p))
	}
}

// Pick returns the alive worker place chooses among those alloc fits, or nil
// when it fits none, or when place is none of the four. FirstFit descends the
// capacity index (O(log W)). The scored placements scan the alive workers in
// ID order and keep the first that scores strictly highest: free memory for
// WorstFit, negated free memory for BestFit, score(workerID, taskID) for
// Locality, where every worker scores zero when score is nil. So every
// policy resolves ties to the lowest worker ID.
func (p *Pool) Pick(place Placement, alloc resources.Vector, taskID int, score func(workerID, taskID int) float64) *Worker {
	if p.alive == 0 || place < FirstFit || place > Locality {
		return nil
	}
	if place == FirstFit {
		return p.idx.firstFit(alloc)
	}
	var chosen *Worker
	var chosenScore float64
	for _, w := range p.idx.ws[:p.idx.n] {
		if w == nil || !w.Fits(alloc) {
			continue
		}
		var s float64
		switch place {
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
