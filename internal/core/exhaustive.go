package core

import (
	"sort"

	"dynalloc/internal/record"
)

// DefaultMaxBuckets is the cap on the number of buckets considered by
// Exhaustive Bucketing. The paper observes that the number of buckets rarely
// exceeds 10 at any given time and restricts the outer loop accordingly
// (Section V-A).
const DefaultMaxBuckets = 10

// ExhaustiveBucketing implements Algorithm 2 with the combinations
// optimization of Section IV-D. Rather than enumerating all C(N, k) break
// point sets, each bucket count nb considers a single candidate
// configuration whose break values split the value space evenly
// (v_max·i/nb), mapped to the closest entries with lower values; duplicate
// and empty mappings are dropped. Each configuration is scored by
// computeExhaustCost and the lowest expected waste wins.
type ExhaustiveBucketing struct {
	// MaxBuckets bounds the number of buckets considered; 0 means
	// DefaultMaxBuckets.
	MaxBuckets int
}

// Name implements Algorithm.
func (ExhaustiveBucketing) Name() string { return "exhaustive" }

// Partition implements Algorithm. The candidate and winner configurations
// double-buffer through the scratch, so a warm Partition is allocation-free.
// The scratch also keeps every break's search result, which the next
// Partition of the same, grown, list starts its search from (evenEnds).
func (e ExhaustiveBucketing) Partition(l *record.List, s *Scratch) []int {
	v := l.View()
	n := v.Len()
	if n == 0 {
		return nil
	}
	if s == nil {
		s = &Scratch{}
	}
	maxB := e.MaxBuckets
	if maxB <= 0 {
		maxB = DefaultMaxBuckets
	}
	if maxB > n {
		maxB = n
	}
	// One bracket per break of every nb in 2..maxB, nb-1 of them per nb, in
	// the order evenEnds runs its searches.
	marks := s.marksFor(maxB * (maxB - 1) / 2)
	added := n - s.markedLen
	s.best = append(s.best[:0], n-1)
	bestCost := computeExhaustCost(v, s.best, s)
	for nb := 2; nb <= maxB; nb++ {
		ends := evenEnds(v, nb, s.cand[:0], marks[:nb-1], added)
		marks = marks[nb-1:]
		s.cand = ends
		if len(ends) < 2 {
			continue // configuration degenerated to a single bucket
		}
		cost := computeExhaustCost(v, ends, s)
		if cost < bestCost {
			bestCost = cost
			s.best, s.cand = ends, s.best
		}
	}
	s.markedLen = n
	return s.best
}

// evenEnds appends to ends the candidate bucket end indices for a target of
// nb buckets: break values at v_max·i/nb for i = 1..nb-1, each mapped to the
// closest entry strictly below it, deduplicated, plus the final index.
//
// marks[i-1] holds where break i's search ended the last time (the first
// entry at or above the break value, or -1 for none), and added how many
// entries the list has gained since; each search starts from that bracket
// and leaves its own answer in marks[i-1].
func evenEnds(v record.View, nb int, ends, marks []int, added int) []int {
	n := v.Len()
	vmax := v.MaxValue()
	prev := -1
	for i := 1; i < nb; i++ {
		p := searchBracket(v, vmax*float64(i)/float64(nb), marks[i-1], added)
		marks[i-1] = p
		idx := p - 1 // the last entry strictly below the break value
		if idx < 0 || idx == prev || idx >= n-1 {
			continue // empty or duplicate mapping, or collides with the last bucket
		}
		ends = append(ends, idx)
		prev = idx
	}
	return append(ends, n-1)
}

// searchBracket returns v.SearchValue(x)+1, the first entry whose value is
// at least x (v.Len() for none). p is where the same break's search ended on
// the list before it gained added entries. A new entry moves an entry up by
// at most the number of entries added below it, and most breaks keep their
// value, so the answer usually lies in [p, p+added]. That bracket is only
// trusted once the values at its edges confirm it holds the answer — the
// entry below it is < x and the one at its top is ≥ x — and is then
// binary-searched. Any other hint, stale or from another list, costs the
// full search and nothing else, so the result is SearchValue's by
// construction.
func searchBracket(v record.View, x float64, p, added int) int {
	vals := v.Values
	n := len(vals)
	hi := min(p+added, n)
	if p < 0 || p > hi || (p > 0 && !(vals[p-1] < x)) || (hi < n && !(vals[hi] >= x)) {
		return v.SearchValue(x) + 1
	}
	return p + sort.Search(hi-p, func(k int) bool { return vals[p+k] >= x })
}

// computeExhaustCost is compute_exhaust_cost of Algorithm 2: the expected
// resource waste of the next task under the bucket configuration described
// by ends. It evaluates the N×N table T where T[i][j] is the expected waste
// when the task truly falls within bucket i and the allocator chooses bucket
// j:
//
//	i <= j: T[i][j] = rep_j - v_i                      (allocation sufficient)
//	i >  j: T[i][j] = rep_j + Σ_{k>j} p_k/P_{>j} · T[i][k]   (failed, retried
//	        among the renormalized higher buckets)
//
// and returns W = Σ_{i,j} p_i · p_j · T[i][j].
//
// The retry-chain sum is evaluated in O(nB²) rather than the textbook
// O(nB³): each row i carries an accumulator acc[i] = Σ_{k>j} p_k·T[i][k]
// from the last column toward the first, so T[i][j] for a failure entry is
// rep_j + acc[i]/tail_{j+1} in O(1), and the same accumulator ends as
// Σ_j p_j·T[i][j] — the row's full contribution to W. The table is walked
// column-major: every row's accumulator advances one column at a time, so
// the rows' division chains are independent and run side by side, while
// each row sees the operations a row-at-a-time walk would make, in the same
// order. W is then summed in row order. No nB×nB table is materialized; the
// working memory is the five per-bucket slices from the scratch.
func computeExhaustCost(v record.View, ends []int, s *Scratch) float64 {
	if s == nil {
		s = &Scratch{}
	}
	nB := len(ends)
	rep, prob, mean, tail, acc := s.floats(nB)
	total := v.TotalSig()
	// Each bucket's statistics are SigSum, WeightedMean and Value of View,
	// spelled out so that a bucket's lower prefix entries are the previous
	// bucket's upper ones, read once.
	sigLo, valSigLo := v.PrefixSig[0], v.PrefixValSig[0]
	for j, hi := range ends {
		sigHi, valSigHi := v.PrefixSig[hi+1], v.PrefixValSig[hi+1]
		sig := float64(sigHi - sigLo) // ≥ 1: every entry's significance is
		rep[j] = v.Values[hi]
		prob[j] = sig / total
		mean[j] = float64(valSigHi-valSigLo) / sig
		acc[j] = 0
		sigLo, valSigLo = sigHi, valSigHi
	}

	// tail[j] = Σ_{m >= j} prob_m, so the renormalizer for buckets above j
	// is tail[j+1].
	tail[nB] = 0
	for j := nB - 1; j >= 0; j-- {
		tail[j] = tail[j+1] + prob[j]
	}

	for j := nB - 1; j >= 0; j-- {
		rj, pj := rep[j], prob[j]
		for i := range acc[:j+1] { // i <= j: the allocation suffices
			tij := rj - mean[i]
			acc[i] += pj * tij
		}
		// Rows above j failed here; the buckets above j hold significance,
		// so their tail is positive wherever such rows exist.
		failed, t := acc[j+1:], tail[j+1]
		for i := range failed {
			tij := rj + failed[i]/t
			failed[i] += pj * tij
		}
	}
	w := 0.0
	for i := range acc {
		w += prob[i] * acc[i]
	}
	return w
}

// ExpectedWaste exposes compute_exhaust_cost for tests, ablations, and the
// worked-example tooling: it scores an arbitrary bucket configuration
// (given by inclusive end indices over the list's entries) by its
// expected resource waste for the next task.
func ExpectedWaste(l *record.List, ends []int) float64 {
	return computeExhaustCost(l.View(), ends, nil)
}
