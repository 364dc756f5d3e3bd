package core

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"dynalloc/internal/record"
)

// naiveGreedyCost re-derives the four-case expected-waste formula of
// Section IV-B directly from the sorted records, without prefix sums.
func naiveGreedyCost(l *record.List, lo, i, hi int) float64 {
	s := l.Sorted()
	if i == hi {
		var sig, valSig float64
		rep := s[hi].Value
		for k := lo; k <= hi; k++ {
			sig += s[k].Sig
			valSig += s[k].Value * s[k].Sig
		}
		return rep - valSig/sig
	}
	var s1, vs1, s2, vs2 float64
	for k := lo; k <= i; k++ {
		s1 += s[k].Sig
		vs1 += s[k].Value * s[k].Sig
	}
	for k := i + 1; k <= hi; k++ {
		s2 += s[k].Sig
		vs2 += s[k].Value * s[k].Sig
	}
	p1 := s1 / (s1 + s2)
	p2 := s2 / (s1 + s2)
	vLo := vs1 / s1
	vHi := vs2 / s2
	rep1 := s[i].Value
	rep2 := s[hi].Value
	return p1*p1*(rep1-vLo) + p1*p2*(rep2-vLo) + p2*p1*(rep1+rep2-vHi) + p2*p2*(rep2-vHi)
}

func TestGreedyCostMatchesNaive(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%30) + 2
		r := rand.New(rand.NewPCG(seed, 5))
		l := &record.List{}
		for i := 0; i < n; i++ {
			l.Add(record.Record{TaskID: i + 1, Value: r.Float64() * 50, Sig: float64(i + 1)})
		}
		for i := 0; i < n; i++ {
			got := greedyCost(l.View(), 0, i, n-1)
			want := naiveGreedyCost(l, 0, i, n-1)
			if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestGreedyCostHandComputed(t *testing.T) {
	// Two records, uniform significance: values 10 and 30.
	l := uniformSigList(10, 30)
	// Split after index 0: p1 = p2 = 0.5, rep1=10, rep2=30, vLo=10, vHi=30.
	// cost = .25*(10-10) + .25*(30-10) + .25*(10+30-30) + .25*(30-30)
	//      = 0 + 5 + 2.5 + 0 = 7.5
	if got := greedyCost(l.View(), 0, 0, 1); math.Abs(got-7.5) > 1e-12 {
		t.Errorf("split cost = %v, want 7.5", got)
	}
	// Single bucket: rep=30, mean=20 -> cost 10.
	if got := greedyCost(l.View(), 0, 1, 1); math.Abs(got-10) > 1e-12 {
		t.Errorf("single-bucket cost = %v, want 10", got)
	}
}

func TestGreedySplitsWellSeparatedClusters(t *testing.T) {
	// Two tight clusters far apart: greedy must break between them.
	values := []float64{100, 101, 102, 103, 5000, 5001, 5002, 5003}
	l := uniformSigList(values...)
	ends := GreedyBucketing{}.Partition(l, nil)
	found := false
	for _, e := range ends {
		if e == 3 {
			found = true
		}
	}
	if !found {
		t.Errorf("greedy ends = %v, want a break after index 3", ends)
	}
}

func TestGreedySingleBucketOnConstantValues(t *testing.T) {
	l := uniformSigList(306, 306, 306, 306, 306)
	ends := GreedyBucketing{}.Partition(l, nil)
	if len(ends) != 1 || ends[0] != 4 {
		t.Errorf("constant values should form one bucket, got ends %v", ends)
	}
}

func TestGreedyRecursionFindsNestedClusters(t *testing.T) {
	// Three clusters; recursion should find both internal breaks (Fig. 3c).
	var values []float64
	for i := 0; i < 10; i++ {
		values = append(values, 100+float64(i))
	}
	for i := 0; i < 10; i++ {
		values = append(values, 2000+float64(i))
	}
	for i := 0; i < 10; i++ {
		values = append(values, 9000+float64(i))
	}
	l := uniformSigList(values...)
	ends := GreedyBucketing{}.Partition(l, nil)
	has := func(e int) bool {
		for _, x := range ends {
			if x == e {
				return true
			}
		}
		return false
	}
	if !has(9) || !has(19) {
		t.Errorf("greedy ends = %v, want breaks after 9 and 19", ends)
	}
}

func TestGreedyEmptyAndSingleton(t *testing.T) {
	if got := (GreedyBucketing{}).Partition(&record.List{}, nil); got != nil {
		t.Errorf("empty partition = %v, want nil", got)
	}
	l := uniformSigList(42)
	ends := GreedyBucketing{}.Partition(l, nil)
	if len(ends) != 1 || ends[0] != 0 {
		t.Errorf("singleton partition = %v", ends)
	}
}

func TestGreedyName(t *testing.T) {
	if (GreedyBucketing{}).Name() != "greedy" {
		t.Error("unexpected algorithm name")
	}
}

// Property: greedy's chosen split at the top level is at least as good as
// any single alternative split under the same two-bucket cost model.
func TestGreedyTopLevelOptimality(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%40) + 2
		r := rand.New(rand.NewPCG(seed, 9))
		l := &record.List{}
		for i := 0; i < n; i++ {
			l.Add(record.Record{TaskID: i + 1, Value: r.Float64() * 100, Sig: float64(i + 1)})
		}
		best := math.Inf(1)
		bestIdx := -1
		for i := 0; i < n; i++ {
			c := greedyCost(l.View(), 0, i, n-1)
			if c < best {
				best, bestIdx = c, i
			}
		}
		// Re-run the scan as greedySplit would and confirm the same argmin.
		minCost := math.Inf(1)
		breakIdx := n - 1
		for i := 0; i < n; i++ {
			cost := greedyCost(l.View(), 0, i, n-1)
			if cost < minCost {
				minCost, breakIdx = cost, i
			}
		}
		return breakIdx == bestIdx && minCost == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestGreedyHandlesLargeNormalSample(t *testing.T) {
	// The Figure 3b scenario: 2000 memory records from N(8, 2) GB.
	r := rand.New(rand.NewPCG(42, 42))
	l := &record.List{}
	for i := 0; i < 2000; i++ {
		v := 8 + 2*r.NormFloat64()
		if v < 0.1 {
			v = 0.1
		}
		l.Add(record.Record{TaskID: i + 1, Value: v, Sig: float64(i + 1)})
	}
	ends := GreedyBucketing{}.Partition(l, nil)
	if len(ends) == 0 {
		t.Fatal("no buckets")
	}
	bs := bucketsFromEnds(l, ends)
	if bs[len(bs)-1].Rep != l.MaxValue() {
		t.Error("last bucket rep must be the maximum record value")
	}
}

// referenceSplit is greedySplit without the filter: every break of every
// range is costed with greedyCost, the first strict minimum wins, and the
// single-bucket configuration (i == hi) is tried last.
func referenceSplit(v record.View, lo, hi int, out []int) []int {
	minCost, breakIdx := math.Inf(1), hi
	for i := lo; i <= hi; i++ {
		if c := greedyCost(v, lo, i, hi); c < minCost {
			minCost, breakIdx = c, i
		}
	}
	if breakIdx == hi {
		return append(out, hi)
	}
	out = referenceSplit(v, lo, breakIdx, out)
	return referenceSplit(v, breakIdx+1, hi, out)
}

// checkMatchesReference fails unless the production sweep partitions l
// exactly as the unfiltered reference does.
func checkMatchesReference(t *testing.T, l *record.List) {
	t.Helper()
	if l.Len() == 0 {
		return
	}
	got := GreedyBucketing{}.Partition(l, nil)
	want := referenceSplit(l.View(), 0, l.Len()-1, nil)
	if !slices.Equal(got, want) {
		t.Fatalf("greedy ends = %v, reference ends = %v\nsorted records: %+v", got, want, l.Sorted())
	}
}

// fuzzRecord decodes one record from two fuzz bytes. The high bits of each
// byte pick a class — the magnitudes, near-ties and degenerate weights the
// filter's error bound has to survive — and the low bits a member of it, so
// one input can mix classes within a list.
func fuzzRecord(id int, vb, sb byte) record.Record {
	lowV, lowS := float64(vb&0x1f), float64(sb&0x3f)
	var value, sig float64
	switch vb >> 5 {
	case 0:
		value = lowV // small integers: heavy duplication
	case 1:
		value = 0
	case 2:
		value = 1 + lowV*1e-13 // distinct values within 1e-13 of each other
	case 3:
		value = (1 + lowV) * 1e300
	case 4:
		value = (1 + lowV) * 1e-300
	case 5:
		value = lowV - 16 // negatives
	case 6:
		value = (1 + float64(vb&7)) / 7 // with sig class 3: exact ties, see TestGreedySweepKeepsRealTies
	case 7:
		value = 3 + 6*float64(vb&1) + lowV/64 // two clusters
	}
	switch sb >> 6 {
	case 0:
		sig = float64(id) // the paper's task-ID weighting
	case 1:
		sig = 0 // clamped by Add
	case 2:
		sig = 1e12 * (1 + lowS)
	case 3:
		sig = lowS / 3
	}
	return record.Record{TaskID: id, Value: value, Sig: sig}
}

// FuzzGreedySplitMatchesReference pins the filtered sweep against the
// reference recursion on adversarial lists: whatever the filter drops, the
// partition must be the one a full greedyCost sweep produces.
func FuzzGreedySplitMatchesReference(f *testing.F) {
	f.Add([]byte{0x03, 0x00, 0x03, 0x01, 0x05, 0x02, 0x05, 0x03, 0x1f, 0x04})                                     // duplicates
	f.Add([]byte{0x07, 0x00, 0x07, 0x00, 0x07, 0x00, 0x07, 0x00})                                                 // constant
	f.Add([]byte{0x20, 0x00, 0x20, 0x40, 0x20, 0x80, 0x20, 0xc1, 0x20, 0x00})                                     // all zero
	f.Add([]byte{0x40, 0x00, 0x41, 0x00, 0x42, 0x00, 0x43, 0x00, 0x5f, 0x00, 0x44, 0x00})                         // within 1e-13
	f.Add([]byte{0x60, 0x00, 0x7f, 0x81, 0x61, 0x00, 0x80, 0x00, 0x9f, 0xbf, 0x81, 0x00})                         // 1e300 and 1e-300
	f.Add([]byte{0xa0, 0x00, 0xb0, 0x00, 0xbf, 0x00, 0xa8, 0x00, 0x05, 0x00})                                     // negatives
	f.Add([]byte{0x01, 0x40, 0x02, 0x80, 0x03, 0x40, 0x04, 0xbf, 0x05, 0xc1, 0x06, 0x40})                         // sig 0 and 1e12
	f.Add([]byte{0xe0, 0x00, 0xe1, 0x00, 0xe4, 0x00, 0xe5, 0x00, 0xe8, 0x00, 0xe9, 0x00, 0xec, 0x00, 0xed, 0x00}) // two clusters
	f.Add([]byte{0xc0, 0xc3, 0xc1, 0xc2, 0xc6, 0xc3, 0xc6, 0xc2, 0xc6, 0xc3, 0xc6, 0xc3})                         // real ties
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 400 {
			data = data[:400] // an all-zero list costs O(n²) evaluations
		}
		l := &record.List{}
		for i := 0; i+1 < len(data); i += 2 {
			l.Add(fuzzRecord(i/2+1, data[i], data[i+1]))
		}
		checkMatchesReference(t, l)
	})
}

// TestGreedySweepKeepsRealTies draws short lists whose values are sevenths
// and whose significances are thirds: small enough that two breaks often
// cost exactly the same as real numbers, and not representable, so rounding
// alone orders their computed costs — and orders their computed f's
// differently. The filter must keep both; it stops doing so (about 1 list in
// 400 here) once its slack falls below 1e-15·T²·(R + K/T).
func TestGreedySweepKeepsRealTies(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	for iter := 0; iter < 20000; iter++ {
		l := &record.List{}
		for i, n := 0, 3+r.IntN(6); i < n; i++ {
			l.Add(record.Record{TaskID: i + 1, Value: float64(1+r.IntN(7)) / 7, Sig: float64(1+r.IntN(4)) / 3})
		}
		checkMatchesReference(t, l)
	}
}

// TestGreedyFallbackAgreesWithFilteredSweep runs one list through both
// regimes of the sweep. Scaling every significance by a power of two leaves
// each probability and weighted mean — hence every cost — bit-identical, but
// takes the total significance below the range the filter's bound covers, so
// the scaled list is partitioned with every candidate costed.
func TestGreedyFallbackAgreesWithFilteredSweep(t *testing.T) {
	filtered, fallback := &record.List{}, &record.List{}
	for _, r := range benchRecords(2000, 7).All() {
		filtered.Add(r)
		r.Sig = math.Ldexp(r.Sig, -400)
		fallback.Add(r)
	}
	n := filtered.Len()
	if s := sweepSlack(filtered.View(), 0, n-1); math.IsInf(s, 0) || !(s > 0) {
		t.Fatalf("sweepSlack = %v on a well-scaled list, want a finite positive bound", s)
	}
	if s := sweepSlack(fallback.View(), 0, n-1); !math.IsInf(s, 1) {
		t.Fatalf("sweepSlack = %v below the covered range, want +Inf", s)
	}
	want := slices.Clone(GreedyBucketing{}.Partition(filtered, nil))
	if got := (GreedyBucketing{}).Partition(fallback, nil); !slices.Equal(got, want) {
		t.Errorf("fallback ends = %v, filtered ends = %v", got, want)
	}
	checkMatchesReference(t, filtered)
	checkMatchesReference(t, fallback)
}

// TestSweepSlackPreconditions: the filter must stand down on every input its
// error bound does not cover.
func TestSweepSlackPreconditions(t *testing.T) {
	list := func(recs ...record.Record) record.View {
		l := &record.List{}
		for _, r := range recs {
			l.Add(r)
		}
		return l.View()
	}
	rec := func(v, sig float64) record.Record { return record.Record{Value: v, Sig: sig} }
	for name, c := range map[string]struct {
		v  record.View
		lo int
	}{
		"negative value":        {list(rec(-1, 1), rec(2, 1), rec(3, 1)), 0},
		"all zero":              {list(rec(0, 1), rec(0, 1), rec(0, 1)), 0},
		"huge value":            {list(rec(1, 1), rec(2, 1), rec(1e300, 1)), 0},
		"tiny value":            {list(rec(1e-300, 1), rec(2e-300, 1), rec(3e-300, 1)), 0},
		"absorbed low weight":   {list(rec(1, 1e12), rec(2, 1e-9), rec(3, 1)), 1},
		"absorbed high weight":  {list(rec(1, 1e12), rec(2, 1), rec(3, 1e-9)), 0},
		"infinite significance": {list(rec(1, 1), rec(2, math.Inf(1)), rec(3, 1)), 0},
		"NaN significance":      {list(rec(1, 1), rec(2, math.NaN()), rec(3, 1)), 0},
	} {
		if s := sweepSlack(c.v, c.lo, c.v.Len()-1); !math.IsInf(s, 1) {
			t.Errorf("%s: sweepSlack = %v, want +Inf", name, s)
		}
	}
}
