package core

import (
	"cmp"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"dynalloc/internal/record"
)

// naiveGreedyCost re-derives the four-case expected-waste formula of
// Section IV-B directly from records sorted by value, without prefix sums.
func naiveGreedyCost(s []record.Record, lo, i, hi int) float64 {
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
		recs := make([]record.Record, n)
		values := r.Perm(1000) // distinct, so records and entries coincide
		for i := range recs {
			recs[i] = record.Record{TaskID: i + 1, Value: float64(values[i]), Sig: float64(i + 1)}
			l.Add(recs[i])
		}
		slices.SortStableFunc(recs, func(a, b record.Record) int { return cmp.Compare(a.Value, b.Value) })
		for i := 0; i < n; i++ {
			got := greedyCost(l.View(), 0, i, n-1)
			want := naiveGreedyCost(recs, 0, i, n-1)
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
	if len(ends) != 1 || ends[0] != 0 {
		t.Errorf("constant values share one entry and form one bucket, got ends %v", ends)
	}
	if bs := bucketsFromEnds(l, ends); bs[0].Count != 5 {
		t.Errorf("the bucket counts %d records, want 5", bs[0].Count)
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

// Property: the production sweep partitions a random list exactly as the
// reference recursion does, so at the top level its break is the cheapest of
// every two-bucket configuration and the single bucket under greedyCost.
func TestGreedyTopLevelOptimality(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%40) + 2
		r := rand.New(rand.NewPCG(seed, 9))
		l := &record.List{}
		for i := 0; i < n; i++ {
			l.Add(record.Record{TaskID: i + 1, Value: r.Float64() * 100, Sig: float64(i + 1)})
		}
		checkMatchesReference(t, l)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestGreedyHandlesLargeNormalSample(t *testing.T) {
	// The Figure 3b scenario: 2000 memory records from N(8, 2) GB, in MB.
	r := rand.New(rand.NewPCG(42, 42))
	l := &record.List{}
	for i := 0; i < 2000; i++ {
		v := 8 + 2*r.NormFloat64()
		if v < 0.1 {
			v = 0.1
		}
		l.Add(record.Record{TaskID: i + 1, Value: 1024 * v, Sig: float64(i + 1)})
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

// referenceBreak is greedySplit's choice without the filter: every break of
// [lo, hi] is costed with greedyCost, the first strict minimum wins, and the
// single-bucket configuration (i == hi) is tried last.
func referenceBreak(v record.View, lo, hi int) int {
	minCost, breakIdx := math.Inf(1), hi
	for i := lo; i <= hi; i++ {
		if c := greedyCost(v, lo, i, hi); c < minCost {
			minCost, breakIdx = c, i
		}
	}
	return breakIdx
}

// referenceSplit is greedySplit's recursion on referenceBreak.
func referenceSplit(v record.View, lo, hi int, out []int) []int {
	breakIdx := referenceBreak(v, lo, hi)
	if breakIdx == hi {
		return append(out, hi)
	}
	out = referenceSplit(v, lo, breakIdx, out)
	return referenceSplit(v, breakIdx+1, hi, out)
}

// visitRanges calls fn on every range of more than one entry that the
// reference recursion over [lo, hi] visits, with the break it chooses there
// (hi for a single bucket).
func visitRanges(v record.View, lo, hi int, fn func(lo, hi, breakIdx int)) {
	if lo == hi {
		return
	}
	breakIdx := referenceBreak(v, lo, hi)
	fn(lo, hi, breakIdx)
	if breakIdx < hi {
		visitRanges(v, lo, breakIdx, fn)
		visitRanges(v, breakIdx+1, hi, fn)
	}
}

// checkMatchesReference fails unless the production sweep partitions l
// exactly as the unfiltered reference does.
func checkMatchesReference(t *testing.T, l *record.List) {
	t.Helper()
	if l.Len() == 0 {
		return
	}
	got := GreedyBucketing{}.Partition(l, nil)
	want := referenceSplit(l.View(), 0, l.Entries()-1, nil)
	if !slices.Equal(got, want) {
		t.Fatalf("greedy ends = %v, reference ends = %v\nsorted values: %v", got, want, l.Values())
	}
}

// fuzzRecord decodes one record from two fuzz bytes. The high bits of each
// byte pick a class — the magnitudes, near-ties and weights the filter's
// error bound has to survive — and the low bits a member of it, so one input
// can mix classes within a list. Every class keeps the sums of 800 records
// inside the record list's int64 bound: a value is at most 2³⁰+31 and a
// significance at most 2²³.
func fuzzRecord(id int, vb, sb byte) record.Record {
	lowV, lowS := float64(vb&0x1f), float64(sb&0x3f)
	var value, sig float64
	switch vb >> 5 {
	case 0:
		value = lowV // small integers: heavy duplication
	case 1:
		value = 0
	case 2:
		value = 1<<30 + lowV // distinct values within 3e-8 of each other
	case 3:
		value = (1 + lowV) * (1 << 25)
	case 4:
		value = 1 + 1000*lowV // spread out
	case 5:
		value = lowV - 16 // negatives, kept as 0
	case 6:
		value = 1 + float64(vb&7) // with sig class 3: exact ties, see TestGreedySweepKeepsRealTies
	case 7:
		value = 3000 + 6000*float64(vb&1) + 16*lowV // two clusters
	}
	switch sb >> 6 {
	case 0:
		sig = float64(id) // the paper's task-ID weighting
	case 1:
		sig = 0 // counted as 1 by Add
	case 2:
		sig = (1 + lowS) * (1 << 17)
	case 3:
		sig = 1 + float64(sb&3)
	}
	return record.Record{TaskID: id, Value: value, Sig: sig}
}

// FuzzGreedySplitMatchesReference pins the filtered sweep against the
// reference recursion on adversarial lists: whatever the filter drops, the
// partition must be the one a full greedyCost sweep produces. The input's
// byte pairs are repeated, with rising task IDs, to at least 600 records, so
// every non-empty list has more than two superblocks of candidates and one
// can be skipped. Past 800 records the input is cut: the reference costs an
// all-zero list's O(n²) breaks, ~30 ms at 800 records on a 2 vCPU Xeon.
func FuzzGreedySplitMatchesReference(f *testing.F) {
	f.Add([]byte{0x03, 0x00, 0x03, 0x01, 0x05, 0x02, 0x05, 0x03, 0x1f, 0x04})                                     // duplicates
	f.Add([]byte{0x07, 0x00, 0x07, 0x00, 0x07, 0x00, 0x07, 0x00})                                                 // constant
	f.Add([]byte{0x20, 0x00, 0x20, 0x40, 0x20, 0x80, 0x20, 0xc1, 0x20, 0x00})                                     // all zero
	f.Add([]byte{0x40, 0x00, 0x41, 0x00, 0x42, 0x00, 0x43, 0x00, 0x5f, 0x00, 0x44, 0x00})                         // within 3e-8
	f.Add([]byte{0x60, 0x00, 0x7f, 0x81, 0x61, 0x00, 0x80, 0x00, 0x9f, 0xbf, 0x81, 0x00})                         // 2^30 and spread
	f.Add([]byte{0xa0, 0x00, 0xb0, 0x00, 0xbf, 0x00, 0xa8, 0x00, 0x05, 0x00})                                     // negatives
	f.Add([]byte{0x01, 0x40, 0x02, 0x80, 0x03, 0x40, 0x04, 0xbf, 0x05, 0xc1, 0x06, 0x40})                         // sig 0 and 2^17
	f.Add([]byte{0xe0, 0x00, 0xe1, 0x00, 0xe4, 0x00, 0xe5, 0x00, 0xe8, 0x00, 0xe9, 0x00, 0xec, 0x00, 0xed, 0x00}) // two clusters
	f.Add([]byte{0xc0, 0xc3, 0xc1, 0xc2, 0xc6, 0xc3, 0xc6, 0xc2, 0xc6, 0xc3, 0xc6, 0xc3})                         // real ties
	f.Fuzz(func(t *testing.T, data []byte) {
		const minRecords, maxRecords = 600, 800
		pairs := min(len(data)/2, maxRecords)
		l := &record.List{}
		for i := 0; pairs > 0 && i < max(pairs, minRecords); i++ {
			p := i % pairs
			l.Add(fuzzRecord(i+1, data[2*p], data[2*p+1]))
		}
		checkMatchesReference(t, l)
	})
}

// TestGreedySweepKeepsRealTies draws short lists of small integer values and
// significances: small enough that two breaks often cost exactly the same as
// real numbers, while the divisions of greedyCost and the products of f
// round them differently, so rounding alone orders their computed costs and
// their computed f's, perhaps each its own way. The filter must keep both.
func TestGreedySweepKeepsRealTies(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	for iter := 0; iter < 20000; iter++ {
		l := &record.List{}
		for i, n := 0, 3+r.IntN(6); i < n; i++ {
			l.Add(record.Record{TaskID: i + 1, Value: float64(1 + r.IntN(7)), Sig: float64(1 + r.IntN(4))})
		}
		checkMatchesReference(t, l)
	}
}

// TestSweepSlackPreconditions: the bound behind the filter needs values ≥ 0,
// significances ≥ 1 and sums small enough that no product of f overflows,
// and the record list makes every input meet them. On negative, zero, huge
// or tiny values and on lopsided, infinite or NaN significances the slack is
// finite and the sweep partitions as the reference does.
func TestSweepSlackPreconditions(t *testing.T) {
	list := func(recs ...record.Record) *record.List {
		l := &record.List{}
		for _, r := range recs {
			l.Add(r)
		}
		return l
	}
	rec := func(v, sig float64) record.Record { return record.Record{Value: v, Sig: sig} }
	for name, l := range map[string]*record.List{
		"negative value":        list(rec(-1, 1), rec(2, 1), rec(3, 1)),
		"all zero":              list(rec(0, 1), rec(0, 2), rec(-3, 3)),
		"huge value":            list(rec(1, 1), rec(2, 1), rec(1e15, 1)),
		"tiny value":            list(rec(1e-300, 1), rec(2e-300, 1), rec(3e-300, 1)),
		"lopsided weights":      list(rec(1, 1e12), rec(2, 1e-9), rec(3, 1)),
		"infinite significance": list(rec(1, 1), rec(2, math.Inf(1)), rec(3, 1)),
		"NaN significance":      list(rec(1, 1), rec(2, math.NaN()), rec(3, 1)),
	} {
		v := l.View()
		for lo := 0; lo < v.Len(); lo++ {
			if s := sweepSlack(v, lo, v.Len()-1); math.IsInf(s, 0) || !(s >= 0) {
				t.Errorf("%s: sweepSlack(%d, %d) = %v, want finite and ≥ 0", name, lo, v.Len()-1, s)
			}
		}
		checkMatchesReference(t, l)
	}
}

// shapedRecords builds an n-record list of one of the paper's synthetic
// shapes, in MB, with the task-ID significance weighting.
func shapedRecords(shape string, n int, seed uint64) *record.List {
	r := rand.New(rand.NewPCG(seed, 0x5A))
	l := &record.List{}
	for i := 0; i < n; i++ {
		var v float64
		switch shape {
		case "normal":
			v = 8 + 2*r.NormFloat64()
		case "uniform":
			v = 1 + 15*r.Float64()
		case "exponential":
			v = 4 * r.ExpFloat64()
		case "trimodal":
			v = float64(2+6*r.IntN(3)) + 0.5*r.NormFloat64()
		}
		l.Add(record.Record{TaskID: i + 1, Value: 1000 * math.Max(v, 0.1), Sig: float64(i + 1)})
	}
	return l
}

// TestGreedyBlockBoundMatchesReference holds the block-pruned sweep to the
// full-costing reference at the sizes it prunes most on: bimodal benchmark
// lists and the synthetic shapes at 1k, 6k and 10k records, partitioned
// through one reused Scratch (growing, then shrinking). A bimodal list with
// one outlier on top breaks its full range in the last block, so a minimum
// at a range's end is covered.
func TestGreedyBlockBoundMatchesReference(t *testing.T) {
	var s Scratch
	atEnds := 0
	for _, n := range []int{1000, 6000, 10000, 1000} {
		peak := benchRecords(n-1, 3)
		peak.Add(record.Record{TaskID: n, Value: 40000, Sig: float64(n)})
		lists := map[string]*record.List{
			"bimodal/42":   benchRecords(n, 42),
			"bimodal/7":    benchRecords(n, 7),
			"bimodal+peak": peak,
		}
		for _, shape := range []string{"normal", "uniform", "exponential", "trimodal"} {
			lists[shape] = shapedRecords(shape, n, uint64(n))
		}
		for name, l := range lists {
			v := l.View()
			want := referenceSplit(v, 0, v.Len()-1, nil)
			if got := (GreedyBucketing{}).Partition(l, &s); !slices.Equal(got, want) {
				t.Fatalf("%s n=%d: greedy ends = %v, reference ends = %v", name, n, got, want)
			}
			visitRanges(v, 0, v.Len()-1, func(lo, hi, breakIdx int) {
				m, k := hi-lo, breakIdx-lo
				if m > 2*sweepBlock && breakIdx < hi && (k < sweepBlock || k >= (m-1)/sweepBlock*sweepBlock) {
					atEnds++
				}
			})
		}
	}
	if atEnds == 0 {
		t.Error("no visited range of more than two blocks broke in its first or last block")
	}
}

// TestGreedyBlockLowerBound checks the bound's claim directly: on every
// range the recursion visits, and on random sub-ranges, where the slack is
// finite, each block's and each superblock's margin-adjusted bound is ≤ every
// computed f inside it. The lists mix the bimodal benchmark shape with
// fuzzRecord's classes: values 3e-8 apart, 2¹⁷ weights, and the small
// integer ties. Some range of more than two blocks must have its smallest f
// outside the seed block, so the fills after the seed's are exercised too.
func TestGreedyBlockLowerBound(t *testing.T) {
	const superLen = sweepSuper * sweepBlock
	r := rand.New(rand.NewPCG(27, 16))
	classList := func(n int, vLo, vHi, sLo, sHi byte) *record.List {
		l := &record.List{}
		for i := 0; i < n; i++ {
			l.Add(fuzzRecord(i+1, vLo+byte(r.IntN(int(vHi-vLo)+1)), sLo+byte(r.IntN(int(sHi-sLo)+1))))
		}
		return l
	}
	// A slice, not a map: the random sub-ranges are drawn list by list, so
	// the lists' order fixes which ones are checked.
	lists := []struct {
		name string
		l    *record.List
	}{
		{"bimodal", benchRecords(3000, 42)},
		{"3e-8 apart", classList(1500, 0x40, 0x5f, 0x00, 0x3f)},
		{"2^17 weights", classList(1500, 0x00, 0x1f, 0x80, 0xbf)},
		{"2^17 on 3e-8", classList(1500, 0x40, 0x5f, 0x80, 0xbf)},
		{"small ties", classList(1500, 0xc0, 0xc7, 0xc1, 0xff)},
		{"two clusters", classList(1500, 0xe0, 0xff, 0x00, 0x3f)},
		{"spread, mixed", classList(1500, 0x80, 0x9f, 0x00, 0xff)},
	}
	reseeded := 0
	for _, list := range lists {
		name, l := list.name, list.l
		v := l.View()
		checked := 0
		check := func(lo, hi, _ int) {
			sw := newRangeSweep(v, lo, hi)
			checked++
			m := hi - lo
			f := make([]float64, m)
			nb := (m + sweepBlock - 1) / sweepBlock
			fBlock, fmin := 0, math.Inf(1)
			for b := range nb {
				if bmin := sw.fill(f, b); bmin < fmin {
					fBlock, fmin = b, bmin
				}
			}
			for _, size := range []int{sweepBlock, superLen} {
				for a := 0; a < m; a += size {
					lb := sw.bound(a, min(a+size, m)-1)
					for k, fi := range f[a:min(a+size, m)] {
						if !(lb <= fi) {
							t.Fatalf("%s [%d,%d] %d candidates from %d: bound %v > f %v at candidate %d", name, lo, hi, size, a, lb, fi, a+k)
						}
					}
				}
			}
			if nb > 2 && fBlock != sw.seed(make([]float64, (m+superLen-1)/superLen), new([sweepSuper]float64)) {
				reseeded++
			}
		}
		visitRanges(v, 0, v.Len()-1, check)
		for range 200 {
			lo := r.IntN(v.Len() - 1)
			check(lo, lo+1+r.IntN(v.Len()-1-lo), 0)
		}
		if checked == 0 {
			t.Errorf("%s: no range checked", name)
		}
	}
	if reseeded == 0 {
		t.Error("no range of more than two blocks had its smallest f outside the seed block")
	}
}

// TestGreedySweepSkipsSuperblocks pins how much the first pass prunes on
// the top range of bimodal lists: at least one superblock is bounded above
// the final limit, so none of its blocks is bounded or filled, and at most a
// tenth of the blocks are filled at 10 000 records and a fiftieth at 6 000.
// Over their 3 914 and 3 138 entries the sweep fills 11 of 490 blocks and 7
// of 393. A looser bound fails here, not only in a benchmark.
func TestGreedySweepSkipsSuperblocks(t *testing.T) {
	const superLen = sweepSuper * sweepBlock
	for _, c := range []struct {
		n        int
		maxShare float64
	}{{10000, 0.10}, {6000, 0.02}} {
		l := benchRecords(c.n, 42)
		sw := newRangeSweep(l.View(), 0, l.Entries()-1)
		m := l.Entries() - 1
		nb := (m + sweepBlock - 1) / sweepBlock
		sbs := make([]float64, (m+superLen-1)/superLen)
		fmin, blocks := sw.sweep(make([]float64, m), sbs, nil)
		limit := fmin + sw.slack
		skipped := 0
		for _, lb := range sbs {
			if lb > limit {
				skipped++
			}
		}
		if skipped == 0 || float64(len(blocks)) > c.maxShare*float64(nb) {
			t.Errorf("n=%d: %d of %d superblocks bounded above the final limit, %d of %d blocks filled; want ≥ 1 and ≤ %v of them",
				c.n, skipped, len(sbs), len(blocks), nb, c.maxShare)
		}
		if !slices.IsSorted(blocks) {
			t.Errorf("n=%d: filled blocks %v are not in ascending order", c.n, blocks)
		}
	}
}
