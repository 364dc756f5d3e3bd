package core

// Scratch is the reusable working memory of the partition hot path. One
// bucketing recomputation needs a handful of per-bucket slices (the
// representative, probability, mean, and probability-tail arrays of
// compute_exhaust_cost) plus two candidate-configuration buffers (the
// sweep's current candidate and the best seen so far). Allocating them per
// recomputation dominated the allocator's cost structure — one recompute per
// completion batch, per category and resource kind — so every State owns one
// Scratch and threads it through Algorithm.Partition; the steady state is
// allocation-free.
//
// A nil *Scratch is accepted everywhere and behaves like a fresh, empty one,
// so one-shot callers (tests, the worked-example tooling) need not manage
// buffers. A Scratch is not safe for concurrent use; neither are the States
// that own them.
//
// Slices returned by Partition alias the Scratch and remain valid only until
// the next Partition call that uses it.
type Scratch struct {
	rep  []float64 // representative value per bucket
	prob []float64 // normalized significance share per bucket
	mean []float64 // significance-weighted mean value per bucket
	tail []float64 // tail[j] = Σ_{m >= j} prob[m]
	acc  []float64 // per-row retry-chain accumulator of the waste table

	cand []int // candidate configuration under evaluation
	best []int // best configuration seen; Partition's return value

	// The exhaustive sweep's search results, one per break it maps, and the
	// list length they were found at: the next Partition's searches start
	// from them.
	marks     []int
	markedLen int

	// The greedy sweep's division-free cost proxy f per candidate, then a
	// lower bound per superblock; and the blocks whose f it computed, in
	// ascending order, which its second pass walks.
	f      []float64
	blocks []int
}

// floats resizes the five per-bucket float buffers to hold nB buckets and
// returns them.
func (s *Scratch) floats(nB int) (rep, prob, mean, tail, acc []float64) {
	if cap(s.tail) < nB+1 {
		c := nB + 1 + 8
		s.rep = make([]float64, 0, c)
		s.prob = make([]float64, 0, c)
		s.mean = make([]float64, 0, c)
		s.tail = make([]float64, 0, c)
		s.acc = make([]float64, 0, c)
	}
	return s.rep[:nB], s.prob[:nB], s.mean[:nB], s.tail[:nB+1], s.acc[:nB]
}

// marksFor returns the first k search marks, extending them with -1 (no
// mark) as needed.
func (s *Scratch) marksFor(k int) []int {
	for len(s.marks) < k {
		s.marks = append(s.marks, -1)
	}
	return s.marks[:k]
}
