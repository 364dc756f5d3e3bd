// Package core implements the paper's primary contribution: the bucketing
// approach to adaptive task resource allocation (Section IV), with the two
// bucket-finding algorithms Greedy Bucketing (Algorithm 1) and Exhaustive
// Bucketing (Algorithm 2, with the even-spacing combinations optimization of
// Section IV-D).
//
// A bucketing State tracks one resource kind for one task category. It
// accumulates resource records of completed tasks, lazily recomputes a set of
// buckets over the sorted record list, and serves allocation predictions:
// the first allocation of a task samples a bucket in proportion to its
// significance-weighted probability and returns the bucket's representative
// value; after a resource exhaustion, only buckets with strictly larger
// representatives are considered, and when none remain the previous
// allocation is doubled until the task succeeds.
package core

import (
	"fmt"
	"math/rand/v2"

	"dynalloc/internal/record"
)

// Bucket is one interval of the record list's entries, reduced to the two
// values the predictor needs (Section IV-A): the representative value
// (the maximum record value in the bucket) and the probability value
// (the bucket's share of total significance).
type Bucket struct {
	Lo, Hi int     // inclusive index range into the list's entries
	Rep    float64 // representative value: max record value in the bucket
	Prob   float64 // normalized significance share of the bucket
	Count  int     // number of records in the bucket
}

func (b Bucket) String() string {
	return fmt.Sprintf("bucket[%d:%d] rep=%.3f prob=%.3f n=%d", b.Lo, b.Hi, b.Rep, b.Prob, b.Count)
}

// appendBucketsCum materializes buckets from the inclusive end indices of
// each bucket over the list's entries, appending to dst, and appends the
// running cumulative probability (cum[i] = Σ prob[0..i], accumulated left to
// right so it matches a sequential sum bit for bit) to cum. ends must be
// strictly ascending and terminate at the last entry. Passing the previous
// buffers re-sliced to length zero makes a recomputation allocation-free.
func appendBucketsCum(dst []Bucket, cum []float64, l *record.List, ends []int) ([]Bucket, []float64) {
	v := l.View()
	total := v.TotalSig()
	running := 0.0
	lo := 0
	for _, hi := range ends {
		b := Bucket{
			Lo:    lo,
			Hi:    hi,
			Rep:   v.Values[hi],
			Count: l.Count(lo, hi),
		}
		if total > 0 {
			b.Prob = v.SigSum(lo, hi) / total
		}
		running += b.Prob
		dst = append(dst, b)
		cum = append(cum, running)
		lo = hi + 1
	}
	return dst, cum
}

// bucketsFromEnds materializes a fresh bucket slice from end indices; the
// State recompute path uses appendBucketsCum with reused buffers instead.
func bucketsFromEnds(l *record.List, ends []int) []Bucket {
	out := make([]Bucket, 0, len(ends))
	out, _ = appendBucketsCum(out, nil, l, ends)
	return out
}

// sampleBucket draws a bucket index in proportion to the (possibly
// unnormalized) probability masses of buckets[from:]. It returns the index
// into the full slice.
func sampleBucket(buckets []Bucket, from int, r *rand.Rand) int {
	total := 0.0
	for _, b := range buckets[from:] {
		total += b.Prob
	}
	return pickBucket(buckets, from, total, r)
}

// sampleBucketCum is sampleBucket with the full-range probability mass
// served from the cumulative array: the common Predict case (from == 0)
// skips the renormalization re-scan entirely. cum is accumulated left to
// right, so cum[len-1] is bit-identical to the sequential sum sampleBucket
// computes. Escalations (from > 0) still sum the tail directly — a
// prefix-difference would associate the additions differently and perturb
// the draw by an ulp.
func sampleBucketCum(buckets []Bucket, cum []float64, from int, r *rand.Rand) int {
	var total float64
	if from == 0 {
		if n := len(cum); n > 0 {
			total = cum[n-1]
		}
	} else {
		for _, b := range buckets[from:] {
			total += b.Prob
		}
	}
	return pickBucket(buckets, from, total, r)
}

// pickBucket draws x uniformly over the probability mass and walks
// buckets[from:] to find the drawn index.
func pickBucket(buckets []Bucket, from int, total float64, r *rand.Rand) int {
	if total <= 0 {
		return len(buckets) - 1
	}
	x := r.Float64() * total
	for i := from; i < len(buckets); i++ {
		x -= buckets[i].Prob
		if x < 0 {
			return i
		}
	}
	return len(buckets) - 1
}

// Algorithm computes a bucket partition over a record list's entries. The
// returned slice holds the inclusive end index of every bucket, ascending,
// with the final element equal to l.Entries()-1: records of equal value share
// an entry, so they always share a bucket. The scratch carries the
// computation's reusable working memory between calls; it may be nil, in
// which case the call allocates transient buffers. The returned slice may
// alias the scratch and is valid only until the next Partition call using
// the same scratch.
type Algorithm interface {
	Name() string
	Partition(l *record.List, s *Scratch) []int
}

// ComputeBuckets runs one full bucketing-state computation — partitioning
// the record list and materializing the buckets — exactly the work a state
// recomputation performs. The Table I harness times this step together with
// an allocation derivation.
func ComputeBuckets(l *record.List, alg Algorithm) []Bucket {
	return bucketsFromEnds(l, alg.Partition(l, nil))
}

// SampleAllocation derives an allocation from a bucket set the way the
// predictor does: a bucket is chosen in proportion to its probability and
// its representative value returned.
func SampleAllocation(buckets []Bucket, r *rand.Rand) float64 {
	if len(buckets) == 0 {
		return 0
	}
	return buckets[sampleBucket(buckets, 0, r)].Rep
}
