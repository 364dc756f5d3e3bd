package metrics

import (
	"math/bits"
	"sort"

	"dynalloc/internal/resources"
)

// Reservoir keeps a bounded uniform sample of an unbounded stream of values
// (Vitter's Algorithm R), so streaming runs can report distribution shape —
// quantiles of per-task memory or runtime — without retaining per-task
// state. Randomness comes from an internal splitmix64 generator seeded at
// construction, so a run's samples are deterministic.
type Reservoir struct {
	capacity int
	seen     uint64
	state    uint64
	vals     []float64
}

// NewReservoir returns a reservoir holding at most capacity samples.
// capacity <= 0 disables sampling (the reservoir still counts the stream).
func NewReservoir(capacity int, seed uint64) *Reservoir {
	r := &Reservoir{capacity: capacity, state: seed}
	// Warm the state so nearby seeds diverge immediately.
	r.next()
	return r
}

// Observe folds one value into the sample.
func (r *Reservoir) Observe(v float64) {
	r.seen++
	if r.capacity <= 0 {
		return
	}
	if len(r.vals) < r.capacity {
		r.vals = append(r.vals, v)
		return
	}
	// Keep the new value with probability capacity/seen: draw a uniform
	// index in [0, seen) and replace only when it lands in the sample.
	if j := r.draw(r.seen); j < uint64(r.capacity) {
		r.vals[j] = v
	}
}

// draw returns a uniform value in [0, bound) via Lemire's nearly-divisionless
// bounded draw: take the high 64 bits of a 64×64→128 multiply, rejecting the
// few raw values whose low half falls in the partial interval. A plain
// `next() % bound` over-weights the first 2^64 mod bound indices whenever
// bound is not a power of two, which would bias replacement toward the front
// of the sample and skew the reported quantiles.
func (r *Reservoir) draw(bound uint64) uint64 {
	x := r.next()
	hi, lo := bits.Mul64(x, bound)
	if lo < bound {
		// Only computed on the rare partial-interval hit: threshold is
		// 2^64 mod bound, the count of raw values that must be rejected for
		// every residue class to be hit equally often.
		threshold := -bound % bound
		for lo < threshold {
			x = r.next()
			hi, lo = bits.Mul64(x, bound)
		}
	}
	return hi
}

// next advances the splitmix64 state.
func (r *Reservoir) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Seen returns how many values the stream produced.
func (r *Reservoir) Seen() uint64 { return r.seen }

// Len returns the current sample size (min(capacity, seen)).
func (r *Reservoir) Len() int { return len(r.vals) }

// Sample returns a copy of the current sample, in insertion order.
func (r *Reservoir) Sample() []float64 {
	out := make([]float64, len(r.vals))
	copy(out, r.vals)
	return out
}

// Quantile estimates the q-quantile (q in [0, 1]) of the stream from the
// sample, by linear interpolation between order statistics. It returns 0 on
// an empty sample.
func (r *Reservoir) Quantile(q float64) float64 {
	if len(r.vals) == 0 {
		return 0
	}
	s := r.Sample()
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// CategoryStats aggregates the outcomes of one task category: the full
// waste/AWE accumulator plus bounded reservoirs over peak memory and
// runtime. The paper's task-oriented allocators are per-category learners,
// so per-category efficiency is the natural streaming report.
type CategoryStats struct {
	Category string
	Acc      Accumulator
	// Memory samples per-task peak memory (MB); Runtime samples per-task
	// runtime (s). Both are bounded reservoirs — see Reservoir.
	Memory  *Reservoir
	Runtime *Reservoir
}

// ByCategory folds a stream of task outcomes into per-category statistics
// with O(categories + reservoir capacity) memory regardless of task count.
// The zero value is not usable; construct with NewByCategory. Not safe for
// concurrent use.
type ByCategory struct {
	reservoirCap int
	seed         uint64
	order        []string
	stats        map[string]*CategoryStats
}

// NewByCategory returns an empty per-category folder whose reservoirs hold
// at most reservoirCap samples each (<= 0 disables sampling).
func NewByCategory(reservoirCap int, seed uint64) *ByCategory {
	return &ByCategory{
		reservoirCap: reservoirCap,
		seed:         seed,
		stats:        make(map[string]*CategoryStats),
	}
}

// Add folds one outcome into its category's statistics. The outcome is only
// read during the call, so callers may pass a pointer into reused storage.
func (bc *ByCategory) Add(o *TaskOutcome) {
	cs := bc.stats[o.Category]
	if cs == nil {
		// Derive per-category reservoir seeds from the base seed and the
		// category name (FNV-1a), so samples are stable across runs and
		// independent of category arrival order.
		h := uint64(14695981039346656037)
		for i := 0; i < len(o.Category); i++ {
			h ^= uint64(o.Category[i])
			h *= 1099511628211
		}
		cs = &CategoryStats{
			Category: o.Category,
			Memory:   NewReservoir(bc.reservoirCap, bc.seed^h),
			Runtime:  NewReservoir(bc.reservoirCap, bc.seed^h^0xa5a5a5a5a5a5a5a5),
		}
		bc.stats[o.Category] = cs
		bc.order = append(bc.order, o.Category)
	}
	cs.Acc.Add(*o)
	cs.Memory.Observe(o.Peak.Get(resources.Memory))
	cs.Runtime.Observe(o.Runtime)
}

// Categories returns the category names in first-appearance order.
func (bc *ByCategory) Categories() []string {
	out := make([]string, len(bc.order))
	copy(out, bc.order)
	return out
}

// Stats returns the statistics for one category, or nil if no task of that
// category has been observed.
func (bc *ByCategory) Stats(category string) *CategoryStats { return bc.stats[category] }

// Tasks returns the total number of outcomes folded across all categories.
func (bc *ByCategory) Tasks() int {
	n := 0
	for _, cs := range bc.stats {
		n += cs.Acc.Tasks()
	}
	return n
}
