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

func TestSortedOrderStable(t *testing.T) {
	l := &List{}
	l.Add(Record{TaskID: 1, Value: 5, Sig: 1})
	l.Add(Record{TaskID: 2, Value: 3, Sig: 2})
	l.Add(Record{TaskID: 3, Value: 5, Sig: 3})
	l.Add(Record{TaskID: 4, Value: 1, Sig: 4})
	s := l.Values()
	wantValues := []float64{1, 3, 5, 5}
	for i, v := range s {
		if v != wantValues[i] {
			t.Fatalf("sorted[%d] value = %v, want %v", i, v, wantValues[i])
		}
	}
	// Stable: the two 5s keep insertion order (task 1, of significance 1,
	// before task 3, of significance 3).
	if l.sigs[2] != 1 || l.sigs[3] != 3 {
		t.Errorf("sort not stable: significances %v", l.sigs)
	}
}

func TestPrefixSums(t *testing.T) {
	l := listOf(10, 20, 30, 40) // sigs 1..4 in the same order
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
	if got := l.TotalSig(); got <= 0 {
		t.Errorf("TotalSig = %v, want positive after clamping", got)
	}
	if got := l.WeightedMean(0, 1); math.Abs(got-5) > 1e-9 {
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

// Property: prefix-sum statistics match a naive recomputation.
func TestPrefixSumsMatchNaive(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		r := rand.New(rand.NewPCG(seed, 1))
		l := &List{}
		for i := 0; i < n; i++ {
			l.Add(Record{
				TaskID: i + 1,
				Value:  r.Float64() * 1000,
				Sig:    r.Float64()*10 + 0.1,
				Time:   r.Float64() * 100,
			})
		}
		s := l.Values()
		if !sort.Float64sAreSorted(s) {
			return false
		}
		// Pick a few random ranges and compare to naive sums.
		for trial := 0; trial < 5; trial++ {
			lo := r.IntN(n)
			hi := lo + r.IntN(n-lo)
			var sig, valSig, tm, valT float64
			for i := lo; i <= hi; i++ {
				sig += l.sigs[i]
				valSig += s[i] * l.sigs[i]
				tm += l.times[i]
				valT += s[i] * l.times[i]
			}
			if math.Abs(l.SigSum(lo, hi)-sig) > 1e-6 ||
				math.Abs(l.TimeSum(lo, hi)-tm) > 1e-6 ||
				math.Abs(l.ValueTimeSum(lo, hi)-valT) > 1e-6 {
				return false
			}
			wm := l.WeightedMean(lo, hi)
			if sig > 0 && math.Abs(wm-valSig/sig) > 1e-6 {
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
// merge rebuilds) yields exactly the same sorted columns as adding everything
// up front (one big sort). Significances are distinct, so the significance
// column witnesses the order of tied values.
func TestIncrementalMergeMatchesFullSort(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%60) + 2
		r := rand.New(rand.NewPCG(seed, 5))
		inc := &List{}
		all := &List{}
		var recs []Record
		for i := 0; i < n; i++ {
			rec := Record{TaskID: i + 1, Value: float64(r.IntN(10)), Sig: float64(i + 1), Time: 1}
			recs = append(recs, rec)
		}
		for i, rec := range recs {
			inc.Add(rec)
			all.Add(rec)
			if r.IntN(3) == 0 || i == len(recs)-1 {
				inc.Values() // force an incremental merge mid-stream
			}
		}
		if !slices.Equal(inc.Values(), all.Values()) || !slices.Equal(inc.sigs, all.sigs) ||
			!slices.Equal(inc.times, all.times) {
			return false
		}
		return math.Abs(inc.TotalSig()-all.TotalSig()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkRebuild5000(b *testing.B) {
	// Steady-state cost: one new record arrives, the sorted view and
	// prefix sums are rebuilt. The list is restored to its 5000 base
	// records, untimed, every steadyPeriod iterations, so it never holds
	// more than 5000+steadyPeriod records and ns/op does not depend on b.N.
	const n, steadyPeriod = 5000, 64
	r := rand.New(rand.NewPCG(1, 2))
	base := make([]Record, n)
	for i := range base {
		base[i] = Record{TaskID: i, Value: r.NormFloat64()*2 + 8, Sig: float64(i + 1), Time: 60}
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
		l.Add(Record{TaskID: id, Value: r.NormFloat64()*2 + 8, Sig: float64(id), Time: 60})
		l.rebuild()
	}
}
