// Package record stores the resource-consumption records that completed
// tasks report back to the allocator. Every allocation algorithm in the
// paper is a function of such a record list: the bucketing algorithms break
// it into buckets, Max Seen takes its maximum, and the Tovar strategies sweep
// it for a first-allocation value.
//
// A List is an exact integer histogram. Add rounds a record's value and time
// up to whole units and its significance up to a positive integer, and
// records of equal value share one entry, which carries their summed
// significance, summed time and record count. The entries are kept sorted by
// value with exact int64 prefix sums of significance, value·significance and
// record count (and, lazily, of time and value·time), so every range
// statistic the algorithms need (bucket probabilities,
// significance-weighted means, expected-waste sweeps, record ranks) is O(1)
// per query after a rebuild. The list does not know the unit: callers scale
// their values to it first (the allocator counts millicores, MB and ms), or
// small values collapse into a handful of entries.
//
// The int64 bound: every sum the list keeps — Σ significance,
// Σ value·significance, Σ time and Σ value·time over all its records — must
// stay at or below 2⁶³−1 (about 9.2e18). Add refuses a record that would
// carry one past it and leaves the list as it was. For scale, 100 000
// records of 64 GB in MB with task IDs up to 100 000 as significance sum to
// 6.6e14 in value·significance.
package record

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// Record is one completed task's observation for a single resource kind.
type Record struct {
	TaskID int     // submission identifier of the task; List does not keep it
	Value  float64 // peak consumption, in the caller's unit; rounded up to an integer
	Sig    float64 // significance; the paper sets it to the task ID (Section V-A)
	Time   float64 // execution time in the caller's unit, for the time-weighted baselines
}

// pend is an added record waiting for the next rebuild, in the list's
// integers; after the batch is sorted and merged it stands for every pending
// record of its value, and pos is where its value lies among the entries.
type pend struct {
	value                  float64
	sig, valSig, time, cnt int64
	pos                    int
}

// List accumulates records and serves sorted range statistics over its
// entries, one per distinct value. The zero value is an empty, ready-to-use
// list.
//
// Additions between queries are buffered and merged into the entries on the
// next rebuild: the pending batch is sorted and its equal values merged, then
// one pass walks down the entries above the lowest pending value, moving each
// up by the number of new entries below it and adding the pending sums from
// below to its prefixes. The sums are exact integers, so no order of
// addition is needed and an entry's prefix is its old prefix plus what landed
// beneath it. A batch whose values all have entries moves nothing.
type List struct {
	// The entries: values[i] is the i-th distinct value in ascending order
	// and times[i] the summed time of its records.
	values []float64
	times  []int64

	// prefixSig[i] = Σ significance of entries [0, i); likewise the
	// value·significance and record-count prefixes.
	prefixSig, prefixValSig, prefixCount []int64

	// Only the Tovar baselines read the time-weighted sums, so they are
	// extended on demand: they cover the first timeValid entries.
	prefixTime, prefixValT []int64
	timeValid              int

	pending []pend
	n       int // records, pending ones included

	// Every record's sums, pending ones included, for the int64 bound.
	sumSig, sumValSig, sumTime, sumValT int64
}

// Add adds a record: its value and time rounded up to integers (negative or
// NaN ones to 0) and its significance rounded up to an integer, a
// non-positive one becoming 1. It reports false, and adds nothing, when the
// record would carry one of the list's sums past the int64 bound (see the
// package comment).
func (l *List) Add(r Record) bool {
	v, okV := whole(r.Value)
	s, okS := whole(r.Sig)
	t, okT := whole(r.Time)
	s = max(s, 1)
	vs, okVS := mul(v, s)
	vt, okVT := mul(v, t)
	sumSig, ok1 := add(l.sumSig, s)
	sumValSig, ok2 := add(l.sumValSig, vs)
	sumTime, ok3 := add(l.sumTime, t)
	sumValT, ok4 := add(l.sumValT, vt)
	if !(okV && okS && okT && okVS && okVT && ok1 && ok2 && ok3 && ok4) {
		return false
	}
	l.sumSig, l.sumValSig, l.sumTime, l.sumValT = sumSig, sumValSig, sumTime, sumValT
	l.pending = append(l.pending, pend{value: float64(v), sig: s, valSig: vs, time: t, cnt: 1})
	l.n++
	return true
}

// whole rounds x up to a non-negative integer; false when it is 2⁶³ or more.
func whole(x float64) (int64, bool) {
	if !(x > 0) {
		return 0, true
	}
	c := math.Ceil(x)
	if c >= 1<<63 {
		return 0, false
	}
	return int64(c), true
}

// mul returns a·b for non-negative a and b; false when it passes the bound.
func mul(a, b int64) (int64, bool) {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	return int64(lo), hi == 0 && lo <= math.MaxInt64
}

// add returns a+b for non-negative a and b; false when it passes the bound.
func add(a, b int64) (int64, bool) {
	return a + b, a <= math.MaxInt64-b
}

// Len returns the number of records.
func (l *List) Len() int { return l.n }

// Entries returns the number of entries: the distinct values recorded.
func (l *List) Entries() int {
	l.rebuild()
	return len(l.values)
}

func (l *List) rebuild() {
	if len(l.pending) == 0 && l.prefixSig != nil {
		return
	}
	m := len(l.values)
	// Sort the batch and merge its equal values, then find where each lands
	// and how many of them are new values.
	slices.SortFunc(l.pending, func(a, b pend) int { return cmp.Compare(a.value, b.value) })
	ps := l.pending[:0]
	for _, p := range l.pending {
		if k := len(ps) - 1; k >= 0 && ps[k].value == p.value {
			ps[k].sig += p.sig
			ps[k].valSig += p.valSig
			ps[k].time += p.time
			ps[k].cnt += p.cnt
			continue
		}
		ps = append(ps, p)
	}
	var sig, valSig, cnt int64 // the batch's sums
	added, from := 0, 0
	for i := range ps {
		p := &ps[i]
		p.pos = from + sort.SearchFloat64s(l.values[from:], p.value)
		from = p.pos
		if p.pos == m || l.values[p.pos] != p.value {
			added++
		}
		sig += p.sig
		valSig += p.valSig
		cnt += p.cnt
	}
	n := m + added
	l.values = slices.Grow(l.values, added)[:n]
	l.times = slices.Grow(l.times, added)[:n]
	l.prefixSig = grownPrefix(l.prefixSig, n)
	l.prefixValSig = grownPrefix(l.prefixValSig, n)
	l.prefixCount = grownPrefix(l.prefixCount, n)

	// From the top down: entries [pos, end) lie above the batch's value p
	// (at or above it when p has an entry) and below every later one, so
	// they move up by the new entries at or below p and gain the batch's
	// sums at or below p, which sig, valSig and cnt hold.
	end := m
	for j := len(ps) - 1; j >= 0; j-- {
		p := ps[j]
		l.shift(p.pos, end, added, sig, valSig, cnt)
		if p.pos < m && l.values[p.pos] == p.value {
			// Its entry has moved with the others; only the time is left.
			l.times[p.pos+added] += p.time
		} else {
			added--
			at := p.pos + added
			l.values[at], l.times[at] = p.value, p.time
			l.prefixSig[at+1] = l.prefixSig[p.pos] + sig
			l.prefixValSig[at+1] = l.prefixValSig[p.pos] + valSig
			l.prefixCount[at+1] = l.prefixCount[p.pos] + cnt
		}
		sig -= p.sig
		valSig -= p.valSig
		cnt -= p.cnt
		end = p.pos
	}
	l.pending = l.pending[:0]
	// end is now the lowest entry that moved or changed.
	l.timeValid = min(l.timeValid, end)
}

// grownPrefix extends a prefix column to cover n entries: n+1 values, of
// which a fresh column's first is the 0 its array starts with.
func grownPrefix(p []int64, n int) []int64 {
	if p == nil {
		p = make([]int64, 1, n+1)
	}
	return slices.Grow(p, n+1-len(p))[:n+1]
}

// shift moves entries [lo, hi) up by by places, adding sig, valSig and cnt
// to their prefixes. The prefixes are walked down in one loop, so an entry
// is read before anything lands on it.
func (l *List) shift(lo, hi, by int, sig, valSig, cnt int64) {
	if lo >= hi {
		return
	}
	copy(l.values[lo+by:], l.values[lo:hi])
	copy(l.times[lo+by:], l.times[lo:hi])
	// Resliced to one length, so the loop carries no bounds checks.
	srcSig := l.prefixSig[lo+1 : hi+1]
	n := len(srcSig)
	srcValSig, srcCount := l.prefixValSig[lo+1:][:n], l.prefixCount[lo+1:][:n]
	dstSig := l.prefixSig[lo+1+by:][:n]
	dstValSig, dstCount := l.prefixValSig[lo+1+by:][:n], l.prefixCount[lo+1+by:][:n]
	for i := n - 1; i >= 0; i-- {
		dstSig[i] = srcSig[i] + sig
		dstValSig[i] = srcValSig[i] + valSig
		dstCount[i] = srcCount[i] + cnt
	}
}

// timePrefixes rebuilds the entries if needed and extends the time-weighted
// prefix sums over all of them.
func (l *List) timePrefixes() {
	l.rebuild()
	m := len(l.values)
	if l.timeValid == m && l.prefixTime != nil {
		return
	}
	l.prefixTime = grownPrefix(l.prefixTime, m)
	l.prefixValT = grownPrefix(l.prefixValT, m)
	for i := l.timeValid; i < m; i++ {
		l.prefixTime[i+1] = l.prefixTime[i] + l.times[i]
		l.prefixValT[i+1] = l.prefixValT[i] + int64(l.values[i])*l.times[i]
	}
	l.timeValid = m
}

// Values returns the entries' values, ascending and distinct. The returned
// slice is owned by the list and must not be modified; it is valid until the
// next Add.
func (l *List) Values() []float64 {
	l.rebuild()
	return l.values
}

// Value returns the value of the i-th entry.
func (l *List) Value(i int) float64 {
	l.rebuild()
	return l.values[i]
}

// MaxValue returns the largest value recorded, or 0 for an empty list.
func (l *List) MaxValue() float64 { return l.View().MaxValue() }

// MinValue returns the smallest value recorded, or 0 for an empty list.
func (l *List) MinValue() float64 {
	if l.Len() == 0 {
		return 0
	}
	l.rebuild()
	return l.values[0]
}

// RankValue returns the value of the record of rank r (0-based) in ascending
// order: the value of the entry whose records cover rank r.
func (l *List) RankValue(r int) float64 {
	v := l.View()
	if r < 0 || r >= l.n {
		panic(fmt.Sprintf("record: rank %d out of bounds for %d records", r, l.n))
	}
	// The first entry whose records reach past rank r.
	i := sort.Search(v.Len(), func(i int) bool { return l.prefixCount[i+1] > int64(r) })
	return v.Values[i]
}

// Count returns the number of records in entries [lo, hi] (inclusive).
func (l *List) Count(lo, hi int) int {
	l.rebuild()
	l.checkRange(lo, hi)
	return int(l.prefixCount[hi+1] - l.prefixCount[lo])
}

// SigSum returns the total significance of entries [lo, hi] (inclusive).
func (l *List) SigSum(lo, hi int) float64 {
	l.rebuild()
	l.checkRange(lo, hi)
	return l.View().SigSum(lo, hi)
}

// TotalSig returns the total significance of all records.
func (l *List) TotalSig() float64 { return l.View().TotalSig() }

// WeightedMean returns the significance-weighted mean value of entries
// [lo, hi] (inclusive). This is the v_lo / v_hi / v_i estimator of Sections
// IV-B and IV-C.
func (l *List) WeightedMean(lo, hi int) float64 {
	l.rebuild()
	l.checkRange(lo, hi)
	return l.View().WeightedMean(lo, hi)
}

// TimeSum returns the total execution time of entries [lo, hi].
func (l *List) TimeSum(lo, hi int) float64 {
	l.timePrefixes()
	l.checkRange(lo, hi)
	return float64(l.prefixTime[hi+1] - l.prefixTime[lo])
}

// ValueTimeSum returns Σ value·time over the records of entries [lo, hi].
// The Tovar baselines use it to evaluate time-weighted expected waste.
func (l *List) ValueTimeSum(lo, hi int) float64 {
	l.timePrefixes()
	l.checkRange(lo, hi)
	return float64(l.prefixValT[hi+1] - l.prefixValT[lo])
}

// SearchValue returns the index of the last entry whose value is strictly
// less than v, or -1 when no entry is below v. This implements the "map its
// value to the closest record that has a lower value than it" step of the
// Exhaustive Bucketing combinations optimization (Section IV-D).
func (l *List) SearchValue(v float64) int {
	return l.View().SearchValue(v)
}

// View is a read-only snapshot of the entries: the value column and the
// significance and value·significance prefix columns, exposed directly so
// that tight partition sweeps pay no per-access dirty check or range
// validation. Record counts are List.Count's: the sweeps do not read them,
// and every slice more is copied on every call a View is passed to. A View is valid until the next Add on its List; the
// slices are owned by the List and must not be modified. Unlike the List
// accessors, View methods do not re-validate ranges — callers index within
// [0, Len()).
type View struct {
	Values       []float64 // entry values, ascending and distinct
	PrefixSig    []int64   // PrefixSig[i] = Σ significance of entries [0, i)
	PrefixValSig []int64   // Σ value·significance of entries [0, i)
}

// View rebuilds the entries if needed and returns a snapshot of them.
func (l *List) View() View {
	l.rebuild()
	return View{
		Values:       l.values,
		PrefixSig:    l.prefixSig,
		PrefixValSig: l.prefixValSig,
	}
}

// Len returns the number of entries in the snapshot.
func (v View) Len() int { return len(v.Values) }

// Value returns the value of the i-th entry.
func (v View) Value(i int) float64 { return v.Values[i] }

// MaxValue returns the largest value in the snapshot, or 0 when empty.
func (v View) MaxValue() float64 {
	if len(v.Values) == 0 {
		return 0
	}
	return v.Values[len(v.Values)-1]
}

// TotalSig returns the total significance of all records.
func (v View) TotalSig() float64 { return float64(v.PrefixSig[len(v.Values)]) }

// SigSum returns the total significance of entries [lo, hi] (inclusive).
func (v View) SigSum(lo, hi int) float64 { return float64(v.PrefixSig[hi+1] - v.PrefixSig[lo]) }

// WeightedMean returns the significance-weighted mean value of entries
// [lo, hi] (inclusive), or 0 for a zero-significance range — bit-identical
// to List.WeightedMean.
func (v View) WeightedMean(lo, hi int) float64 {
	sig := v.PrefixSig[hi+1] - v.PrefixSig[lo]
	if sig == 0 {
		return 0
	}
	return float64(v.PrefixValSig[hi+1]-v.PrefixValSig[lo]) / float64(sig)
}

// SearchValue returns the index of the last entry whose value is strictly
// less than x, or -1 when no entry is below x.
func (v View) SearchValue(x float64) int {
	return sort.SearchFloat64s(v.Values, x) - 1
}

func (l *List) checkRange(lo, hi int) {
	if lo < 0 || hi >= len(l.values) || lo > hi {
		panic(fmt.Sprintf("record: range [%d,%d] out of bounds for %d entries", lo, hi, len(l.values)))
	}
}
