// Package allocator implements the adaptive resource allocator of the paper:
// a per-task-category, per-resource-kind prediction layer that the task
// scheduler consults at dispatch time. It provides the seven allocation
// algorithms of the evaluation (Section V-A): Whole Machine, Max Seen,
// Min Waste, Max Throughput, Quantized Bucketing, Greedy Bucketing, and
// Exhaustive Bucketing, all behind one Policy interface, plus the
// exploratory-mode machinery shared by every predictive algorithm.
package allocator

import (
	"math/rand/v2"

	"dynalloc/internal/record"
)

// Estimator predicts scalar allocations for one resource kind within one
// task category, in the kind's observation units (observeScale): whole
// millicores, MB or ms, which is what the record lists count in. The
// Allocator converts at its boundary. Implementations are not safe for
// concurrent use; the Allocator serializes access.
type Estimator interface {
	// Predict returns the first-attempt allocation for the next task, or 0
	// when the estimator has no basis for a prediction yet (the exploration
	// wrapper supplies the default in that case).
	Predict(r *rand.Rand) float64
	// Retry returns the allocation after the task exhausted an allocation
	// of prev for this kind. Implementations must return a value strictly
	// greater than prev so escalation always terminates.
	Retry(prev float64, r *rand.Rand) float64
	// Observe records the peak consumption of a completed task.
	Observe(rec record.Record)
	// Len reports how many records have been observed.
	Len() int
}

// explorer implements the exploratory mode of Section V-A: until the inner
// estimator has seen threshold records, every first attempt is allocated the
// fixed initial value and failures escalate by doubling. The bucketing
// algorithms explore conservatively (1 core / 1 GB / 1 GB); the alternative
// algorithms explore with a whole machine (Section V-C).
type explorer struct {
	inner     Estimator
	threshold int
	initial   float64
}

func (e *explorer) exploring() bool { return e.inner.Len() < e.threshold }

func (e *explorer) Predict(r *rand.Rand) float64 {
	if e.exploring() {
		return e.initial
	}
	if v := e.inner.Predict(r); v > 0 {
		return v
	}
	return e.initial
}

func (e *explorer) Retry(prev float64, r *rand.Rand) float64 {
	if e.exploring() {
		if prev <= 0 {
			return e.initial
		}
		return prev * 2
	}
	return e.inner.Retry(prev, r)
}

func (e *explorer) Observe(rec record.Record) { e.inner.Observe(rec) }

func (e *explorer) Len() int { return e.inner.Len() }
