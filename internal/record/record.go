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
//
// The sorted view is kept as dense columns, one []float64 per field (value,
// significance, time), not as a slice of records: a partition sweep or a
// binary search reads only the value column, and an insert moves 24 bytes
// per record where a []Record would move 32. A record's TaskID is accepted
// by Add and not stored, since no statistic reads it.
package record

import (
	"fmt"
	"slices"
	"sort"
)

// Record is one completed task's observation for a single resource kind.
type Record struct {
	TaskID int     // submission identifier of the task; List does not keep it
	Value  float64 // peak consumption of the resource during the run
	Sig    float64 // significance; the paper sets it to the task ID (Section V-A)
	Time   float64 // execution time in seconds, used by time-weighted baselines
}

// entry is a record as the list keeps it, without its TaskID.
type entry struct{ value, sig, time float64 }

// List accumulates records and serves sorted range statistics.
// The zero value is an empty, ready-to-use list.
//
// Additions between queries are buffered and inserted into the sorted view
// on the next rebuild: sorting only the pending batch and moving the records
// above it keeps the per-update cost at O(moved + k log n) for k new records
// instead of re-sorting the whole list, which matters when a long workflow
// recomputes its bucketing state after every completed task.
type List struct {
	// The sorted view: values[i], sigs[i] and times[i] belong to the i-th
	// record in ascending value order.
	values, sigs, times []float64
	pending             []entry
	dirty               bool

	prefixSig    []float64 // prefixSig[i] = Σ sigs[0..i-1]
	prefixValSig []float64 // Σ values[k] * sigs[k]

	// Only the Tovar baselines read the time-weighted sums, so they are
	// extended on demand: they cover the first timeValid sorted records.
	prefixTime []float64 // Σ times[k]
	prefixValT []float64 // Σ values[k] * times[k]
	timeValid  int
}

// Add appends a record. Significance values must be positive for the
// probability weighting to be well defined; non-positive significances are
// clamped to a tiny epsilon so a record never disappears entirely.
func (l *List) Add(r Record) {
	if r.Sig <= 0 {
		r.Sig = 1e-9
	}
	l.pending = append(l.pending, entry{r.Value, r.Sig, r.Time})
	l.dirty = true
}

// Len returns the number of records.
func (l *List) Len() int { return len(l.values) + len(l.pending) }

// byValue orders entries by value; a stable sort under it keeps insertion
// order among equal values. It is < 0 exactly when a.value < b.value, the
// only test the stable sort makes.
func byValue(a, b entry) int {
	switch {
	case a.value < b.value:
		return -1
	case a.value > b.value:
		return 1
	}
	return 0
}

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
	slices.SortStableFunc(l.pending, byValue)
	end := len(l.values) // the columns' [:end] has not moved yet
	n := end + len(l.pending)
	l.values = slices.Grow(l.values, len(l.pending))[:n]
	l.sigs = slices.Grow(l.sigs, len(l.pending))[:n]
	l.times = slices.Grow(l.times, len(l.pending))[:n]
	for j := len(l.pending) - 1; j >= 0; j-- {
		p := l.pending[j]
		pos := sort.Search(end, func(i int) bool { return l.values[i] > p.value })
		copy(l.values[pos+j+1:], l.values[pos:end])
		copy(l.sigs[pos+j+1:], l.sigs[pos:end])
		copy(l.times[pos+j+1:], l.times[pos:end])
		l.values[pos+j], l.sigs[pos+j], l.times[pos+j] = p.value, p.sig, p.time
		end = pos
	}
	l.pending = l.pending[:0]
	// end is now the first sorted index whose record changed; prefix sums up
	// to it are still valid and are not recomputed.
	// Entries end+1..n are all written below; a fresh list's entry 0 is the
	// zero its new array starts with.
	l.prefixSig = slices.Grow(l.prefixSig, n+1-len(l.prefixSig))[:n+1]
	l.prefixValSig = slices.Grow(l.prefixValSig, n+1-len(l.prefixValSig))[:n+1]
	// The running sums are carried in locals and written through tails cut to
	// the records' length: the same additions in the same order as
	// prefix[i+1] = prefix[i] + x, without the store-to-load round trip on the
	// dependency chain or a bounds check per store.
	sig, valSig := l.prefixSig[end], l.prefixValSig[end]
	vals := l.values[end:]
	sigs := l.sigs[end:][:len(vals)]
	sigOut := l.prefixSig[end+1:][:len(vals)]
	valSigOut := l.prefixValSig[end+1:][:len(vals)]
	for i, v := range vals {
		s := sigs[i]
		sig = sig + s
		valSig = valSig + v*s
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
	n := len(l.values)
	if l.timeValid == n {
		return
	}
	l.prefixTime = append(l.prefixTime, make([]float64, n+1-len(l.prefixTime))...)
	l.prefixValT = append(l.prefixValT, make([]float64, n+1-len(l.prefixValT))...)
	for i := l.timeValid; i < n; i++ {
		l.prefixTime[i+1] = l.prefixTime[i] + l.times[i]
		l.prefixValT[i+1] = l.prefixValT[i] + l.values[i]*l.times[i]
	}
	l.timeValid = n
}

// Values returns the record values sorted ascending. The returned slice is
// owned by the list and must not be modified; it is valid until the next
// Add.
func (l *List) Values() []float64 {
	l.rebuild()
	return l.values
}

// Value returns the value of the i-th record in sorted order.
func (l *List) Value(i int) float64 {
	l.rebuild()
	return l.values[i]
}

// MaxValue returns the largest value recorded, or 0 for an empty list.
func (l *List) MaxValue() float64 {
	if l.Len() == 0 {
		return 0
	}
	l.rebuild()
	return l.values[len(l.values)-1]
}

// MinValue returns the smallest value recorded, or 0 for an empty list.
func (l *List) MinValue() float64 {
	if l.Len() == 0 {
		return 0
	}
	l.rebuild()
	return l.values[0]
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
	return l.prefixSig[len(l.values)]
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
	return l.View().SearchValue(v)
}

// View is a read-only snapshot of the sorted record list: the value column
// and the two significance prefix-sum slices, exposed directly so that tight
// partition sweeps pay no per-access dirty check or range validation. A View
// is valid until the next Add on its List; the slices are owned by the List
// and must not be modified. Unlike the List accessors, View methods do not
// re-validate ranges — callers index within [0, Len()).
type View struct {
	Values       []float64 // record values, ascending
	PrefixSig    []float64 // PrefixSig[i] = Σ significance of records [0, i)
	PrefixValSig []float64 // Σ value·significance of records [0, i)
}

// View rebuilds the sorted view if needed and returns a snapshot of it.
func (l *List) View() View {
	l.rebuild()
	return View{
		Values:       l.values,
		PrefixSig:    l.prefixSig,
		PrefixValSig: l.prefixValSig,
	}
}

// Len returns the number of records in the snapshot.
func (v View) Len() int { return len(v.Values) }

// Value returns the value of the i-th record in sorted order.
func (v View) Value(i int) float64 { return v.Values[i] }

// MaxValue returns the largest value in the snapshot, or 0 when empty.
func (v View) MaxValue() float64 {
	if len(v.Values) == 0 {
		return 0
	}
	return v.Values[len(v.Values)-1]
}

// TotalSig returns the total significance of all records.
func (v View) TotalSig() float64 { return v.PrefixSig[len(v.Values)] }

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
	i := sort.Search(len(v.Values), func(i int) bool { return v.Values[i] >= x })
	return i - 1
}

func (l *List) checkRange(lo, hi int) {
	if lo < 0 || hi >= len(l.values) || lo > hi {
		panic(fmt.Sprintf("record: range [%d,%d] out of bounds for %d records", lo, hi, len(l.values)))
	}
}
