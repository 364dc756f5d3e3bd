// Package record stores the resource-consumption records that completed
// tasks report back to the allocator. Every allocation algorithm in the
// paper is a function of such a record list: the bucketing algorithms break
// it into buckets, Max Seen takes its maximum, and the Tovar strategies sweep
// it for a first-allocation value.
//
// A List is append-only and maintains, lazily, a value-sorted view with
// prefix sums of significance, value·significance, time, and value·time, so
// that every range statistic the algorithms need (bucket probabilities,
// significance-weighted means, expected-waste sweeps) is O(1) per query after
// a rebuild.
package record

import (
	"fmt"
	"sort"
)

// Record is one completed task's observation for a single resource kind.
type Record struct {
	TaskID int     // submission identifier of the task
	Value  float64 // peak consumption of the resource during the run
	Sig    float64 // significance; the paper sets it to the task ID (Section V-A)
	Time   float64 // execution time in seconds, used by time-weighted baselines
}

// List accumulates records and serves sorted range statistics.
// The zero value is an empty, ready-to-use list.
//
// Additions between queries are buffered and inserted into the sorted view
// on the next rebuild: sorting only the pending batch and moving the records
// above it keeps the per-update cost at O(moved + k log n) for k new records
// instead of re-sorting the whole list, which matters when a long workflow
// recomputes its bucketing state after every completed task.
type List struct {
	sorted  []Record
	pending []Record
	dirty   bool

	prefixSig    []float64 // prefixSig[i] = Σ sorted[0..i-1].Sig
	prefixValSig []float64 // Σ sorted[k].Value * sorted[k].Sig

	// Only the Tovar baselines read the time-weighted sums, so they are
	// extended on demand: they cover sorted[:timeValid].
	prefixTime []float64 // Σ sorted[k].Time
	prefixValT []float64 // Σ sorted[k].Value * sorted[k].Time
	timeValid  int
}

// Add appends a record. Significance values must be positive for the
// probability weighting to be well defined; non-positive significances are
// clamped to a tiny epsilon so a record never disappears entirely.
func (l *List) Add(r Record) {
	if r.Sig <= 0 {
		r.Sig = 1e-9
	}
	l.pending = append(l.pending, r)
	l.dirty = true
}

// Len returns the number of records.
func (l *List) Len() int { return len(l.sorted) + len(l.pending) }

func (l *List) rebuild() {
	if !l.dirty && l.prefixSig != nil {
		return
	}
	// Sort the pending batch (stable, preserving insertion order among
	// equal values) and insert it in place, largest first: each record goes
	// above every sorted record with a value <= its own (older records first
	// on ties, matching a stable sort of the full list), and the block above
	// it moves up once, by the number of pending records still to land
	// below it.
	sort.SliceStable(l.pending, func(i, j int) bool {
		return l.pending[i].Value < l.pending[j].Value
	})
	end := len(l.sorted) // sorted[:end] has not moved yet
	l.sorted = append(l.sorted, l.pending...)
	for j := len(l.pending) - 1; j >= 0; j-- {
		p := l.pending[j]
		pos := sort.Search(end, func(i int) bool { return l.sorted[i].Value > p.Value })
		copy(l.sorted[pos+j+1:], l.sorted[pos:end])
		l.sorted[pos+j] = p
		end = pos
	}
	l.pending = l.pending[:0]
	// end is now the first sorted index whose record changed; prefix sums up
	// to it are still valid and are not recomputed.
	n := len(l.sorted)
	l.prefixSig = append(l.prefixSig, make([]float64, n+1-len(l.prefixSig))...)
	l.prefixValSig = append(l.prefixValSig, make([]float64, n+1-len(l.prefixValSig))...)
	// The running sums are carried in locals and written through tails cut to
	// the records' length: the same additions in the same order as
	// prefix[i+1] = prefix[i] + x, without the store-to-load round trip on the
	// dependency chain or a bounds check per store.
	sig, valSig := l.prefixSig[end], l.prefixValSig[end]
	tail := l.sorted[end:]
	sigOut := l.prefixSig[end+1:][:len(tail)]
	valSigOut := l.prefixValSig[end+1:][:len(tail)]
	for i, r := range tail {
		sig = sig + r.Sig
		valSig = valSig + r.Value*r.Sig
		sigOut[i] = sig
		valSigOut[i] = valSig
	}
	l.timeValid = min(l.timeValid, end)
	l.dirty = false
}

// timePrefixes rebuilds the sorted view if needed and extends the
// time-weighted prefix sums over all of it.
func (l *List) timePrefixes() {
	l.rebuild()
	n := len(l.sorted)
	if l.timeValid == n {
		return
	}
	l.prefixTime = append(l.prefixTime, make([]float64, n+1-len(l.prefixTime))...)
	l.prefixValT = append(l.prefixValT, make([]float64, n+1-len(l.prefixValT))...)
	for i := l.timeValid; i < n; i++ {
		r := l.sorted[i]
		l.prefixTime[i+1] = l.prefixTime[i] + r.Time
		l.prefixValT[i+1] = l.prefixValT[i] + r.Value*r.Time
	}
	l.timeValid = n
}

// Sorted returns the records sorted ascending by value. The returned slice
// is owned by the list and must not be modified; it is valid until the next
// Add.
func (l *List) Sorted() []Record {
	l.rebuild()
	return l.sorted
}

// Value returns the value of the i-th record in sorted order.
func (l *List) Value(i int) float64 {
	l.rebuild()
	return l.sorted[i].Value
}

// MaxValue returns the largest value recorded, or 0 for an empty list.
func (l *List) MaxValue() float64 {
	if l.Len() == 0 {
		return 0
	}
	l.rebuild()
	return l.sorted[len(l.sorted)-1].Value
}

// MinValue returns the smallest value recorded, or 0 for an empty list.
func (l *List) MinValue() float64 {
	if l.Len() == 0 {
		return 0
	}
	l.rebuild()
	return l.sorted[0].Value
}

// SigSum returns the total significance of sorted records in [lo, hi]
// (inclusive indices).
func (l *List) SigSum(lo, hi int) float64 {
	l.rebuild()
	l.checkRange(lo, hi)
	return l.prefixSig[hi+1] - l.prefixSig[lo]
}

// TotalSig returns the total significance of all records.
func (l *List) TotalSig() float64 {
	l.rebuild()
	return l.prefixSig[len(l.sorted)]
}

// WeightedMean returns the significance-weighted mean value of sorted
// records in [lo, hi] (inclusive). This is the v_lo / v_hi / v_i estimator
// of Sections IV-B and IV-C.
func (l *List) WeightedMean(lo, hi int) float64 {
	l.rebuild()
	l.checkRange(lo, hi)
	sig := l.prefixSig[hi+1] - l.prefixSig[lo]
	if sig == 0 {
		return 0
	}
	return (l.prefixValSig[hi+1] - l.prefixValSig[lo]) / sig
}

// TimeSum returns the total execution time of sorted records in [lo, hi].
func (l *List) TimeSum(lo, hi int) float64 {
	l.timePrefixes()
	l.checkRange(lo, hi)
	return l.prefixTime[hi+1] - l.prefixTime[lo]
}

// ValueTimeSum returns Σ value·time over sorted records in [lo, hi]. The
// Tovar baselines use it to evaluate time-weighted expected waste.
func (l *List) ValueTimeSum(lo, hi int) float64 {
	l.timePrefixes()
	l.checkRange(lo, hi)
	return l.prefixValT[hi+1] - l.prefixValT[lo]
}

// SearchValue returns the index of the last sorted record whose value is
// strictly less than v, or -1 when no record is below v. This implements the
// "map its value to the closest record that has a lower value than it" step
// of the Exhaustive Bucketing combinations optimization (Section IV-D).
func (l *List) SearchValue(v float64) int {
	l.rebuild()
	// sort.Search finds the first index with value >= v.
	i := sort.Search(len(l.sorted), func(i int) bool { return l.sorted[i].Value >= v })
	return i - 1
}

// View is a read-only snapshot of the sorted record list: the sorted records
// and the prefix-sum slices, exposed directly so that tight partition sweeps
// pay no per-access dirty check or range validation. A View is valid until
// the next Add on its List; the slices are owned by the List and must not be
// modified. Unlike the List accessors, View methods do not re-validate
// ranges — callers index within [0, Len()).
type View struct {
	Sorted       []Record
	PrefixSig    []float64
	PrefixValSig []float64
}

// View rebuilds the sorted view if needed and returns a snapshot of it.
func (l *List) View() View {
	l.rebuild()
	return View{
		Sorted:       l.sorted,
		PrefixSig:    l.prefixSig,
		PrefixValSig: l.prefixValSig,
	}
}

// Len returns the number of records in the snapshot.
func (v View) Len() int { return len(v.Sorted) }

// Value returns the value of the i-th record in sorted order.
func (v View) Value(i int) float64 { return v.Sorted[i].Value }

// MaxValue returns the largest value in the snapshot, or 0 when empty.
func (v View) MaxValue() float64 {
	if len(v.Sorted) == 0 {
		return 0
	}
	return v.Sorted[len(v.Sorted)-1].Value
}

// TotalSig returns the total significance of all records.
func (v View) TotalSig() float64 { return v.PrefixSig[len(v.Sorted)] }

// SigSum returns the total significance of sorted records in [lo, hi]
// (inclusive indices).
func (v View) SigSum(lo, hi int) float64 { return v.PrefixSig[hi+1] - v.PrefixSig[lo] }

// WeightedMean returns the significance-weighted mean value of sorted
// records in [lo, hi] (inclusive), or 0 for a zero-significance range —
// bit-identical to List.WeightedMean.
func (v View) WeightedMean(lo, hi int) float64 {
	sig := v.PrefixSig[hi+1] - v.PrefixSig[lo]
	if sig == 0 {
		return 0
	}
	return (v.PrefixValSig[hi+1] - v.PrefixValSig[lo]) / sig
}

// SearchValue returns the index of the last record whose value is strictly
// less than x, or -1 when no record is below x.
func (v View) SearchValue(x float64) int {
	i := sort.Search(len(v.Sorted), func(i int) bool { return v.Sorted[i].Value >= x })
	return i - 1
}

func (l *List) checkRange(lo, hi int) {
	if lo < 0 || hi >= len(l.sorted) || lo > hi {
		panic(fmt.Sprintf("record: range [%d,%d] out of bounds for %d records", lo, hi, len(l.sorted)))
	}
}
