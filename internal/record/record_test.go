package record

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func listOf(values ...float64) *List {
	l := &List{}
	for i, v := range values {
		l.Add(Record{TaskID: i + 1, Value: v, Sig: float64(i + 1), Time: 1})
	}
	return l
}

func TestEmptyList(t *testing.T) {
	l := &List{}
	if l.Len() != 0 {
		t.Fatal("empty list should have length 0")
	}
	if l.MaxValue() != 0 || l.MinValue() != 0 {
		t.Error("empty list extrema should be 0")
	}
	if got := l.Values(); len(got) != 0 {
		t.Errorf("empty list Values() = %v", got)
	}
}

func TestEqualValuesShareAnEntry(t *testing.T) {
	l := &List{}
	l.Add(Record{TaskID: 1, Value: 5, Sig: 1, Time: 10})
	l.Add(Record{TaskID: 2, Value: 3, Sig: 2, Time: 20})
	l.Add(Record{TaskID: 3, Value: 5, Sig: 3, Time: 30})
	l.Add(Record{TaskID: 4, Value: 1, Sig: 4, Time: 40})
	if !slices.Equal(l.Values(), []float64{1, 3, 5}) {
		t.Fatalf("entries = %v, want [1 3 5]", l.Values())
	}
	if l.Len() != 4 || l.Entries() != 3 {
		t.Fatalf("Len, Entries = %d, %d, want 4, 3", l.Len(), l.Entries())
	}
	// The two 5s: significance 1+3, time 10+30, two records.
	if l.SigSum(2, 2) != 4 || l.TimeSum(2, 2) != 40 || l.Count(2, 2) != 2 {
		t.Errorf("entry of 5: sig %v, time %v, count %d, want 4, 40, 2", l.SigSum(2, 2), l.TimeSum(2, 2), l.Count(2, 2))
	}
	for r, want := range []float64{1, 3, 5, 5} {
		if got := l.RankValue(r); got != want {
			t.Errorf("RankValue(%d) = %v, want %v", r, got, want)
		}
	}
}

func TestAddRoundsUp(t *testing.T) {
	l := &List{}
	l.Add(Record{Value: 2.1, Sig: 0.5, Time: 0.2})
	l.Add(Record{Value: 3, Sig: 2, Time: -1})
	l.Add(Record{Value: -4, Sig: 1, Time: math.NaN()})
	l.Add(Record{Value: math.NaN(), Sig: 1})
	if !slices.Equal(l.Values(), []float64{0, 3}) {
		t.Fatalf("entries = %v, want [0 3]", l.Values())
	}
	// 2.1 and 3 share the entry 3: significance 1 (0.5 rounded up) + 2.
	if l.SigSum(1, 1) != 3 || l.TimeSum(1, 1) != 1 || l.TimeSum(0, 0) != 0 {
		t.Errorf("entry 3: sig %v, time %v; entry 0: time %v", l.SigSum(1, 1), l.TimeSum(1, 1), l.TimeSum(0, 0))
	}
}

// TestInt64Bound fills the list's value·significance sum to exactly
// 2⁶³−1, checks every sum is exact there, and that the next record, which
// would carry the sum past the bound, is refused and changes nothing.
func TestInt64Bound(t *testing.T) {
	l := &List{}
	// 2⁶³−1 = 7² · 73 · 127 · 337 · 92737 · 649657.
	const v, s = 7 * 7 * 73 * 127, 337 * 92737 * 649657
	if !l.Add(Record{Value: v, Sig: s, Time: 1}) {
		t.Fatal("a record at the bound was refused")
	}
	v0 := l.View()
	if v0.PrefixValSig[1] != math.MaxInt64 || v0.PrefixSig[1] != s {
		t.Fatalf("sums %d, %d, want %d, %d", v0.PrefixValSig[1], v0.PrefixSig[1], int64(math.MaxInt64), s)
	}
	if l.Add(Record{Value: 1, Sig: 1}) {
		t.Fatal("a record past the bound was accepted")
	}
	if l.Add(Record{Value: 1 << 63, Sig: 1}) || l.Add(Record{Value: 1, Sig: math.Inf(1)}) {
		t.Fatal("a value or significance of 2⁶³ was accepted")
	}
	if l.Len() != 1 || l.Entries() != 1 || l.View().PrefixValSig[1] != math.MaxInt64 {
		t.Fatalf("a refused record changed the list: %d records, %d entries", l.Len(), l.Entries())
	}
	// A zero-valued record still fits: it adds significance only.
	if !l.Add(Record{Value: 0, Sig: 1, Time: 1}) || l.TotalSig() != s+1 {
		t.Fatalf("zero-valued record: total significance %v, want %v", l.TotalSig(), float64(s+1))
	}
}

func TestPrefixSums(t *testing.T) {
	l := listOf(10, 20, 30, 40) // sigs 1..4 in the same order
	if l.Count(0, 3) != 4 || l.Count(1, 2) != 2 {
		t.Errorf("Count(0,3), Count(1,2) = %d, %d, want 4, 2", l.Count(0, 3), l.Count(1, 2))
	}
	if got := l.SigSum(0, 3); got != 10 {
		t.Errorf("SigSum(0,3) = %v, want 10", got)
	}
	if got := l.SigSum(1, 2); got != 5 {
		t.Errorf("SigSum(1,2) = %v, want 5", got)
	}
	if got := l.TotalSig(); got != 10 {
		t.Errorf("TotalSig = %v, want 10", got)
	}
	// Weighted mean of [1,2]: (20*2 + 30*3) / 5 = 130/5 = 26.
	if got := l.WeightedMean(1, 2); math.Abs(got-26) > 1e-12 {
		t.Errorf("WeightedMean(1,2) = %v, want 26", got)
	}
	if got := l.TimeSum(0, 3); got != 4 {
		t.Errorf("TimeSum = %v, want 4", got)
	}
	if got := l.ValueTimeSum(0, 1); got != 30 {
		t.Errorf("ValueTimeSum(0,1) = %v, want 30", got)
	}
}

func TestExtrema(t *testing.T) {
	l := listOf(7, 3, 9, 1)
	if l.MinValue() != 1 {
		t.Errorf("MinValue = %v", l.MinValue())
	}
	if l.MaxValue() != 9 {
		t.Errorf("MaxValue = %v", l.MaxValue())
	}
	if l.Value(0) != 1 || l.Value(3) != 9 {
		t.Error("Value(i) should index the sorted order")
	}
}

func TestAddAfterQueryInvalidatesCaches(t *testing.T) {
	l := listOf(5, 10)
	if l.MaxValue() != 10 {
		t.Fatal("precondition failed")
	}
	l.Add(Record{TaskID: 3, Value: 50, Sig: 3})
	if l.MaxValue() != 50 {
		t.Error("cache not invalidated after Add")
	}
	if got := l.TotalSig(); got != 6 {
		t.Errorf("TotalSig after add = %v, want 6", got)
	}
}

func TestSigClamping(t *testing.T) {
	l := &List{}
	l.Add(Record{TaskID: 1, Value: 5, Sig: 0})
	l.Add(Record{TaskID: 2, Value: 5, Sig: -3})
	if got := l.TotalSig(); got != 2 {
		t.Errorf("TotalSig = %v, want 2: a non-positive significance counts 1", got)
	}
	if got := l.WeightedMean(0, 0); got != 5 {
		t.Errorf("WeightedMean = %v, want 5", got)
	}
}

func TestSearchValue(t *testing.T) {
	l := listOf(10, 20, 30, 40)
	cases := []struct {
		v    float64
		want int
	}{
		{5, -1},  // below everything
		{10, -1}, // equal to min: no record strictly lower
		{15, 0},  // between 10 and 20
		{20, 0},  // equal: record strictly lower is index 0
		{35, 2},  // between 30 and 40
		{40, 2},  // equal to max
		{100, 3}, // above everything
	}
	for _, c := range cases {
		if got := l.SearchValue(c.v); got != c.want {
			t.Errorf("SearchValue(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestRangePanics(t *testing.T) {
	l := listOf(1, 2, 3)
	for _, r := range [][2]int{{-1, 1}, {0, 3}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("range %v should panic", r)
				}
			}()
			l.SigSum(r[0], r[1])
		}()
	}
}

// Property: every range statistic over entries equals the sum, exact, over
// the records whose values fall in the range.
func TestPrefixSumsMatchNaive(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		r := rand.New(rand.NewPCG(seed, 1))
		l := &List{}
		var recs []Record
		for i := 0; i < n; i++ {
			rec := Record{
				TaskID: i + 1,
				Value:  float64(r.IntN(40)),
				Sig:    float64(r.IntN(10) + 1),
				Time:   float64(r.IntN(100)),
			}
			l.Add(rec)
			recs = append(recs, rec)
		}
		s := l.Values()
		if !sort.Float64sAreSorted(s) || l.Entries() != len(s) {
			return false
		}
		for i := 1; i < len(s); i++ {
			if s[i] == s[i-1] {
				return false
			}
		}
		for trial := 0; trial < 5; trial++ {
			lo := r.IntN(len(s))
			hi := lo + r.IntN(len(s)-lo)
			var sig, valSig, tm, valT float64
			cnt := 0
			for _, rec := range recs {
				if rec.Value >= s[lo] && rec.Value <= s[hi] {
					sig += rec.Sig
					valSig += rec.Value * rec.Sig
					tm += rec.Time
					valT += rec.Value * rec.Time
					cnt++
				}
			}
			if l.SigSum(lo, hi) != sig || l.TimeSum(lo, hi) != tm ||
				l.ValueTimeSum(lo, hi) != valT || l.Count(lo, hi) != cnt ||
				l.WeightedMean(lo, hi) != valSig/sig {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: SearchValue(v) returns the greatest index whose value < v.
func TestSearchValueProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%30) + 1
		r := rand.New(rand.NewPCG(seed, 2))
		l := &List{}
		for i := 0; i < n; i++ {
			l.Add(Record{TaskID: i, Value: float64(r.IntN(20)), Sig: 1})
		}
		s := l.Values()
		for v := -1.0; v <= 21; v++ {
			got := l.SearchValue(v)
			want := -1
			for i := range s {
				if s[i] < v {
					want = i
				}
			}
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: interleaving Add calls with queries (which trigger incremental
// merge rebuilds) yields exactly the same entries and prefix columns as
// adding everything up front.
func TestIncrementalMergeMatchesFullSort(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%60) + 2
		r := rand.New(rand.NewPCG(seed, 5))
		inc := &List{}
		all := &List{}
		var recs []Record
		for i := 0; i < n; i++ {
			rec := Record{TaskID: i + 1, Value: float64(r.IntN(10)), Sig: float64(i + 1), Time: float64(r.IntN(5))}
			recs = append(recs, rec)
		}
		for i, rec := range recs {
			inc.Add(rec)
			all.Add(rec)
			if r.IntN(3) == 0 || i == len(recs)-1 {
				inc.Values() // force an incremental merge mid-stream
			}
		}
		a, b := inc.View(), all.View()
		return slices.Equal(a.Values, b.Values) && slices.Equal(a.PrefixSig, b.PrefixSig) &&
			slices.Equal(a.PrefixValSig, b.PrefixValSig) && slices.Equal(inc.prefixCount, all.prefixCount) &&
			slices.Equal(inc.times, all.times) && inc.TimeSum(0, inc.Entries()-1) == all.TimeSum(0, all.Entries()-1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkRebuild5000(b *testing.B) {
	// Steady-state cost: one new record arrives, the entries and prefix
	// sums are rebuilt. Values are N(8, 2) GB in MB. The list is restored to its 5000 base
	// records, untimed, every steadyPeriod iterations, so it never holds
	// more than 5000+steadyPeriod records and ns/op does not depend on b.N.
	const n, steadyPeriod = 5000, 64
	r := rand.New(rand.NewPCG(1, 2))
	base := make([]Record, n)
	for i := range base {
		base[i] = Record{TaskID: i, Value: (r.NormFloat64()*2 + 8) * 1024, Sig: float64(i + 1), Time: 60}
	}
	var l *List
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%steadyPeriod == 0 {
			b.StopTimer()
			l = &List{}
			for _, rec := range base {
				l.Add(rec)
			}
			l.rebuild()
			b.StartTimer()
		}
		id := n + i%steadyPeriod
		l.Add(Record{TaskID: id, Value: (r.NormFloat64()*2 + 8) * 1024, Sig: float64(id), Time: 60})
		l.rebuild()
	}
}
