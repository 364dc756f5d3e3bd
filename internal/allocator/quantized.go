package allocator

import (
	"math/rand/v2"

	"dynalloc/internal/record"
)

// quantized implements the Quantized Bucketing comparison algorithm of
// Phung et al., "Not All Tasks Are Created Equal" (WORKS 2021), as described
// in Section V: records are split into buckets at fixed quantiles (the 50th
// quantile in the paper's configuration), each bucket's representative is its
// maximum value, a bucket is chosen in proportion to its record mass, and
// failures escalate to higher buckets before falling back to doubling.
type quantized struct {
	recs      record.List
	quantiles []float64 // ascending, exclusive of 0 and 1
}

// quantizedQuantiles is the paper's configuration: one split, at the median
// (Section V-B). Estimators share it and only read it.
var quantizedQuantiles = []float64{0.5}

func newQuantized(quantiles []float64) *quantized {
	return &quantized{quantiles: quantiles}
}

// reps returns the representative value and record-count weight of each
// quantile bucket. The quantiles are record ranks, read through the list's
// count prefix.
func (q *quantized) reps() (reps []float64, weights []float64) {
	n := q.recs.Len()
	if n == 0 {
		return nil, nil
	}
	prev := -1
	for _, p := range q.quantiles {
		idx := int(p*float64(n)) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= n-1 {
			idx = n - 2
		}
		if idx <= prev {
			continue
		}
		reps = append(reps, q.recs.RankValue(idx))
		weights = append(weights, float64(idx-prev))
		prev = idx
	}
	reps = append(reps, q.recs.RankValue(n-1))
	weights = append(weights, float64(n-1-prev))
	return reps, weights
}

func (q *quantized) Predict(r *rand.Rand) float64 {
	reps, weights := q.reps()
	if len(reps) == 0 {
		return 0
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return reps[i]
		}
	}
	return reps[len(reps)-1]
}

func (q *quantized) Retry(prev float64, r *rand.Rand) float64 {
	reps, weights := q.reps()
	total := 0.0
	from := -1
	for i, rep := range reps {
		if rep > prev {
			if from < 0 {
				from = i
			}
			total += weights[i]
		}
	}
	if from < 0 || total <= 0 {
		if prev <= 0 {
			return 1
		}
		return prev * 2
	}
	x := r.Float64() * total
	for i := from; i < len(reps); i++ {
		if reps[i] <= prev {
			continue
		}
		x -= weights[i]
		if x < 0 {
			return reps[i]
		}
	}
	return reps[len(reps)-1]
}

func (q *quantized) Observe(rec record.Record) { q.recs.Add(rec) }

func (q *quantized) Len() int { return q.recs.Len() }
