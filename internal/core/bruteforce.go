package core

import (
	"math"

	"dynalloc/internal/record"
)

// BruteForce is the literal Algorithm 2 without the combinations
// optimization of Section IV-D: it enumerates every possible bucket
// configuration of the record list's entries and scores each with
// compute_exhaust_cost. Its cost grows exponentially (2^(n-1)
// configurations over n entries), so it is only usable on small lists; it exists as the
// ground-truth reference the optimized ExhaustiveBucketing is validated
// against, and as the exact solver for the worked examples.
type BruteForce struct {
	// MaxEntries guards against accidental exponential blow-ups; lists of
	// more entries than this panic. Zero means 20.
	MaxEntries int
}

// Name implements Algorithm.
func (BruteForce) Name() string { return "brute-force" }

// Partition implements Algorithm.
func (b BruteForce) Partition(l *record.List, s *Scratch) []int {
	v := l.View()
	n := v.Len()
	if n == 0 {
		return nil
	}
	maxN := b.MaxEntries
	if maxN <= 0 {
		maxN = 20
	}
	if n > maxN {
		panic("core: BruteForce.Partition on a list of more than MaxEntries entries")
	}
	if s == nil {
		s = &Scratch{}
	}
	best := []int{n - 1}
	bestCost := computeExhaustCost(v, best, s)
	// Every subset of {0..n-2} as interior bucket ends.
	ends := make([]int, 0, n)
	var rec func(next int)
	rec = func(next int) {
		if next == n-1 {
			cfg := append(append([]int{}, ends...), n-1)
			if cost := computeExhaustCost(v, cfg, s); cost < bestCost {
				bestCost = cost
				best = cfg
			}
			return
		}
		rec(next + 1) // next is not a bucket end
		ends = append(ends, next)
		rec(next + 1) // next is a bucket end
		ends = ends[:len(ends)-1]
	}
	rec(0)
	return best
}

// OptimalityGap returns how far a partition's expected waste is above the
// brute-force optimum for the same records, as a ratio >= 1 (1 means the
// partition is optimal). It is a testing/validation helper for small lists.
func OptimalityGap(l *record.List, ends []int, maxEntries int) float64 {
	bf := BruteForce{MaxEntries: maxEntries}
	optimal := ExpectedWaste(l, bf.Partition(l, nil))
	got := ExpectedWaste(l, ends)
	if optimal <= 0 {
		if got <= 0 {
			return 1
		}
		return math.Inf(1)
	}
	return got / optimal
}
