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
// when it fits none. First, worst and best fit go to the capacity index
// (O(log W)); Locality scans the alive chain in ID order, scoring each
// fitting worker with score(workerID, taskID) — every worker scores zero when
// score is nil. Every policy resolves ties to the lowest worker ID.
func (p *Pool) Pick(place Placement, alloc resources.Vector, taskID int, score func(workerID, taskID int) float64) *Worker {
	if p.alive == 0 {
		return nil
	}
	switch place {
	case FirstFit:
		return p.idx.firstFit(alloc)
	case WorstFit:
		return p.idx.worstFit(alloc)
	case BestFit:
		return p.idx.bestFit(alloc)
	case Locality:
		var chosen *Worker
		var chosenScore float64
		for w := p.head; w != nil; w = w.next {
			if !w.Fits(alloc) {
				continue
			}
			s := 0.0
			if score != nil {
				s = score(w.id, taskID)
			}
			if chosen == nil || s > chosenScore {
				chosen, chosenScore = w, s
			}
		}
		return chosen
	default:
		return nil
	}
}
