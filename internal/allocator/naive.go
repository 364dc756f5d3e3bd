package allocator

import (
	"math"
	"math/rand/v2"

	"dynalloc/internal/record"
	"dynalloc/internal/resources"
)

// wholeMachine is the paper's baseline: every task is allocated a full
// worker. It never fails and never learns.
type wholeMachine struct {
	capacity float64
	n        int
}

func (w *wholeMachine) Predict(*rand.Rand) float64 { return w.capacity }

func (w *wholeMachine) Retry(prev float64, _ *rand.Rand) float64 {
	// A task can only exhaust a whole machine if its consumption exceeds
	// worker capacity; doubling keeps the contract that Retry increases.
	if prev <= 0 {
		return w.capacity
	}
	return prev * 2
}

func (w *wholeMachine) Observe(record.Record) { w.n++ }

func (w *wholeMachine) Len() int { return w.n }

// maxSeen allocates the maximum resource value seen so far in the current
// run, rounded up on a histogram with a fixed bucket size (the paper notes a
// bucket size of 250 MB, which turns TopEFT's constant 306 MB disk
// consumption into a 500 MB allocation in the steady state, Section V-C).
type maxSeen struct {
	max     float64
	n       int
	quantum float64
}

// maxSeenQuantum is Max Seen's histogram bucket size per kind, in the kind's
// physical unit (cores, MB, MB, s).
var maxSeenQuantum = resources.New(1, 250, 250, 60)

// observeScale is the number of observation units per physical unit, per
// kind: the allocator rounds every observed peak up to 1 millicore, 1 MB,
// 1 MB and 1 ms, and its estimators count in those units. Rounding up to
// 1 MB and then to Max Seen's 250 MB (or to 1 millicore, then 1 core) moves
// no quantized value.
var observeScale = resources.New(1000, 1, 1, 1000)

func (m *maxSeen) Predict(*rand.Rand) float64 {
	if m.n == 0 {
		return 0
	}
	return quantize(m.max, m.quantum)
}

func (m *maxSeen) Retry(prev float64, _ *rand.Rand) float64 {
	if q := quantize(m.max, m.quantum); q > prev {
		return q
	}
	if prev <= 0 {
		return math.Max(m.quantum, 1)
	}
	return prev * 2
}

func (m *maxSeen) Observe(rec record.Record) {
	m.n++
	if rec.Value > m.max {
		m.max = rec.Value
	}
}

func (m *maxSeen) Len() int { return m.n }

// quantize rounds v up to the next multiple of quantum. A non-positive
// quantum disables rounding.
func quantize(v, quantum float64) float64 {
	if quantum <= 0 {
		return v
	}
	return math.Ceil(v/quantum) * quantum
}
