package core

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"dynalloc/internal/record"
)

// coldEnds is evenEnds with no search mark to start from: every break is
// searched over the whole list.
func coldEnds(v record.View, nb int) []int {
	marks := make([]int, nb-1)
	for i := range marks {
		marks[i] = -1
	}
	return evenEnds(v, nb, nil, marks, 0)
}

// rowMajorExhaustCost is computeExhaustCost as a row-at-a-time walk of the
// waste table: each row's accumulator runs from the last column to the
// first before the next row starts. computeExhaustCost walks the table
// column-major; per row, the two make the same operations in the same order
// and with the same expression shape, so the costs must agree bit for bit.
func rowMajorExhaustCost(v record.View, ends []int) float64 {
	nB := len(ends)
	rep, prob, mean := make([]float64, nB), make([]float64, nB), make([]float64, nB)
	tail := make([]float64, nB+1)
	total := v.TotalSig()
	lo := 0
	for j, hi := range ends {
		rep[j] = v.Value(hi)
		prob[j] = 0
		if total > 0 {
			prob[j] = v.SigSum(lo, hi) / total
		}
		mean[j] = v.WeightedMean(lo, hi)
		lo = hi + 1
	}
	tail[nB] = 0
	for j := nB - 1; j >= 0; j-- {
		tail[j] = tail[j+1] + prob[j]
	}

	w := 0.0
	for i := 0; i < nB; i++ {
		acc := 0.0 // Σ over the columns visited so far of p_k·T[i][k]
		for j := nB - 1; j >= 0; j-- {
			var tij float64
			if i <= j {
				tij = rep[j] - mean[i]
			} else {
				tij = rep[j]
				if t := tail[j+1]; t > 0 {
					tij += acc / t
				}
			}
			acc += prob[j] * tij
		}
		w += prob[i] * acc
	}
	if math.IsNaN(w) {
		return math.Inf(1)
	}
	return w
}

// checkCostsMatchRowMajor scores every configuration the exhaustive sweep
// considers on l — one bucket, then evenEnds for nb = 2..maxB — plus extra,
// with both walks of the waste table, and fails unless they agree bit for
// bit.
func checkCostsMatchRowMajor(t *testing.T, l *record.List, maxB int, extra ...[]int) {
	t.Helper()
	v := l.View()
	n := v.Len()
	configs := append([][]int{{n - 1}}, extra...)
	for nb := 2; nb <= min(maxB, n); nb++ {
		configs = append(configs, coldEnds(v, nb))
	}
	var s Scratch
	for _, ends := range configs {
		got, want := computeExhaustCost(v, ends, &s), rowMajorExhaustCost(v, ends)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ends %v: column-major cost %v (%#x), row-major %v (%#x)",
				ends, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestExhaustCostColumnMajorMatchesRowMajor pins the column-major waste
// table to the row-major walk, bit for bit, on random lists of the paper's
// shapes, on fuzzRecord's adversarial classes, and on lists whose top
// buckets hold a sliver of the probability: light records above a base of
// 2²³-weighted ones.
func TestExhaustCostColumnMajorMatchesRowMajor(t *testing.T) {
	r := rand.New(rand.NewPCG(34, 34))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.IntN(300)
		l := &record.List{}
		switch trial % 4 {
		case 0: // task-ID significance, continuous values
			for i := 0; i < n; i++ {
				l.Add(record.Record{TaskID: i + 1, Value: 100000 * r.ExpFloat64(), Sig: float64(i + 1)})
			}
		case 1: // adversarial classes
			for i := 0; i < n; i++ {
				l.Add(fuzzRecord(i+1, byte(r.IntN(256)), byte(r.IntN(256))))
			}
		case 2, 3: // a heavy base with light records on top, some tied
			base := 1 + r.IntN(n)
			for i := 0; i < n; i++ {
				if i < base {
					l.Add(record.Record{TaskID: i + 1, Value: float64(r.IntN(50)), Sig: 1 << 23})
				} else {
					l.Add(record.Record{TaskID: i + 1, Value: float64(50 + r.IntN(50)), Sig: 1})
				}
			}
		}
		// A random configuration beside the even-spaced ones.
		var random []int
		m := l.Entries()
		for i := 0; i < m-1; i++ {
			if r.IntN(8) == 0 {
				random = append(random, i)
			}
		}
		checkCostsMatchRowMajor(t, l, 1+r.IntN(12), append(random, m-1))
	}
}

// FuzzExhaustiveWarmScratchMatchesCold pins the exhaustive sweep's search
// brackets: a Partition that starts its searches from the marks a Scratch
// kept must equal one that searches cold (a nil Scratch). Two lists grow from
// byte-coded batches. Each has a Scratch of its own, which always sees the
// same list grown (the State's case), and one shared Scratch alternates
// between them whenever consecutive batches go to different lists, so its
// marks are foreign or stale. After every batch the grown list is
// partitioned all three ways, and every configuration the sweep scores is
// also held to the row-major cost, bit for bit.
//
// The input is a sequence of batches: a control byte — bit 7 picks the list,
// bits 0-2 the number of records, less one — then two bytes per record,
// decoded by fuzzRecord. maxB sets MaxBuckets (0: the default).
func FuzzExhaustiveWarmScratchMatchesCold(f *testing.F) {
	f.Add([]byte{0x02, 0x03, 0x00, 0x05, 0x00, 0x01, 0x00, 0x01, 0x09, 0x00, 0x00, 0x01, 0x1f, 0x00}, uint8(0))
	f.Add([]byte{0x07, 0x01, 0x00, 0x02, 0x00, 0x03, 0x00, 0x04, 0x00, 0x05, 0x00, 0x06, 0x00, 0x07, 0x00, 0x08, 0x00,
		0x80, 0x1f, 0x00, 0x00, 0x10, 0x00, 0x80, 0x02, 0x00, 0x00, 0x1e, 0x00}, uint8(12)) // ascending, then a new max
	f.Add([]byte{0x03, 0xe0, 0x00, 0xe8, 0x00, 0xff, 0x00, 0xe3, 0x00, 0x83, 0xc1, 0xc1, 0xc2, 0xc1, 0xc3, 0xc1, 0xc7, 0xc1,
		0x01, 0xe1, 0x00, 0xfe, 0x00, 0x81, 0x60, 0x80, 0x61, 0x80}, uint8(5)) // clusters and exact ties
	f.Add([]byte{0x07, 0x00, 0x80, 0x01, 0x80, 0x02, 0x80, 0x03, 0x80, 0x1d, 0x40, 0x1e, 0x40, 0x1f, 0x40, 0x1f, 0x40,
		0x00, 0x1e, 0x40, 0x00, 0x05, 0x80}, uint8(0)) // heavy bottoms, light tops
	f.Add([]byte{0x01, 0x60, 0x00, 0x61, 0x00, 0x81, 0x40, 0x00, 0xa0, 0x00, 0x01, 0x7f, 0x00, 0x20, 0x00}, uint8(3)) // large and negative values
	f.Fuzz(func(t *testing.T, data []byte, maxB uint8) {
		e := ExhaustiveBucketing{MaxBuckets: int(maxB % 13)}
		var lists [2]record.List
		var own [2]Scratch
		var shared Scratch
		id := 0
		for len(data) > 0 {
			ctl := data[0]
			data = data[1:]
			which := int(ctl >> 7)
			l := &lists[which]
			for k := int(ctl&7) + 1; k > 0 && len(data) >= 2; k-- {
				id++
				l.Add(fuzzRecord(id, data[0], data[1]))
				data = data[2:]
			}
			if l.Len() == 0 {
				continue
			}
			cold := slices.Clone(e.Partition(l, nil))
			if got := e.Partition(l, &own[which]); !slices.Equal(got, cold) {
				t.Fatalf("list %d, %d records: warm ends %v, cold ends %v", which, l.Len(), got, cold)
			}
			if got := e.Partition(l, &shared); !slices.Equal(got, cold) {
				t.Fatalf("list %d, %d records: shared-scratch ends %v, cold ends %v", which, l.Len(), got, cold)
			}
			maxBuckets := e.MaxBuckets
			if maxBuckets <= 0 {
				maxBuckets = DefaultMaxBuckets
			}
			checkCostsMatchRowMajor(t, l, maxBuckets, cold)
		}
	})
}

func TestEvenEndsBasic(t *testing.T) {
	l := uniformSigList(10, 20, 30, 40, 50, 60, 70, 80, 90, 100)
	// nb = 2: break value at 50 -> closest entry strictly below 50 is 40
	// (index 3); ends = [3, 9].
	ends := coldEnds(l.View(), 2)
	if len(ends) != 2 || ends[0] != 3 || ends[1] != 9 {
		t.Errorf("evenEnds(2) = %v, want [3 9]", ends)
	}
	// nb = 4: break values 25, 50, 75 -> indices of 20, 40, 70 = 1, 3, 6.
	ends = coldEnds(l.View(), 4)
	want := []int{1, 3, 6, 9}
	if len(ends) != len(want) {
		t.Fatalf("evenEnds(4) = %v, want %v", ends, want)
	}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("evenEnds(4) = %v, want %v", ends, want)
		}
	}
}

func TestEvenEndsDropsEmptyAndDuplicateMappings(t *testing.T) {
	// All mass near the max: low break values map below the minimum entry
	// and must be dropped; close break values map to the same entry and
	// must be deduplicated.
	l := uniformSigList(90, 91, 92, 93, 100)
	ends := coldEnds(l.View(), 10) // break values 10,20,...,90
	for i := 1; i < len(ends); i++ {
		if ends[i] <= ends[i-1] {
			t.Fatalf("evenEnds produced non-ascending ends %v", ends)
		}
	}
	if ends[len(ends)-1] != 4 {
		t.Errorf("last end = %d, want 4", ends[len(ends)-1])
	}
}

func TestEvenEndsNeverCollidesWithFinalBucket(t *testing.T) {
	l := uniformSigList(1, 2, 3)
	for nb := 2; nb <= 10; nb++ {
		ends := coldEnds(l.View(), nb)
		for i := 0; i < len(ends)-1; i++ {
			if ends[i] >= 2 {
				t.Fatalf("nb=%d: interior end %d collides with final bucket", nb, ends[i])
			}
		}
	}
}

func TestComputeExhaustCostSingleBucket(t *testing.T) {
	l := uniformSigList(10, 20, 30)
	// One bucket: rep = 30, v = 20 -> expected waste = 10.
	if got := ExpectedWaste(l, []int{2}); math.Abs(got-10) > 1e-12 {
		t.Errorf("single bucket cost = %v, want 10", got)
	}
}

func TestComputeExhaustCostTwoBucketsHand(t *testing.T) {
	// Records 10, 30 with uniform significance; buckets {10}, {30}.
	// p1 = p2 = 0.5; rep = [10, 30]; v = [10, 30].
	// T[0][0]=0, T[0][1]=20, T[1][1]=0, T[1][0]=10 + 1.0*T[1][1] = 10.
	// W = .25*(0 + 20 + 10 + 0) = 7.5 — equal to the greedy split cost.
	l := uniformSigList(10, 30)
	if got := ExpectedWaste(l, []int{0, 1}); math.Abs(got-7.5) > 1e-12 {
		t.Errorf("two-bucket cost = %v, want 7.5", got)
	}
}

// TestComputeExhaustCostFourBucketRetryChainHand pins the retry-chain
// recurrence on a fully hand-computed 4-bucket case. Every quantity is a
// dyadic rational, so the expected cost is exact in binary floating point
// under any summation order — the O(nB²) suffix-accumulator evaluation must
// reproduce it to the bit, not within an epsilon.
//
// Records (value, sig): (4,4), (8,2), (16,1), (32,1); one bucket per record.
//
//	rep = v = [4, 8, 16, 32]
//	p   = [1/2, 1/4, 1/8, 1/8],  tail = [1, 1/2, 1/4, 1/8, 0]
//
// Failure rows, filled from the last column (T[i][j] = rep_j + Σ_{k>j}
// p_k/tail_{j+1}·T[i][k]):
//
//	row 0: T[0][·] = [0, 4, 12, 28]              (all-success row)
//	row 1: T[1][0] = 4 + (1/2)·0 + (1/4)·8 + (1/4)·24        = 12
//	row 2: T[2][1] = 8 + (1/2)·0 + (1/2)·16                  = 16
//	       T[2][0] = 4 + (1/2)·16 + (1/4)·0 + (1/4)·16       = 16
//	row 3: T[3][2] = 16 + 1·0                                = 16
//	       T[3][1] = 8 + (1/2)·16 + (1/2)·0                  = 16
//	       T[3][0] = 4 + (1/2)·16 + (1/4)·16 + (1/4)·0       = 16
//
// W = Σ p_i·p_j·T[i][j] = (1/2)·6 + (1/4)·10 + (1/8)·14 + (1/8)·14 = 9.
func TestComputeExhaustCostFourBucketRetryChainHand(t *testing.T) {
	l := &record.List{}
	for _, rec := range []record.Record{
		{TaskID: 1, Value: 4, Sig: 4},
		{TaskID: 2, Value: 8, Sig: 2},
		{TaskID: 3, Value: 16, Sig: 1},
		{TaskID: 4, Value: 32, Sig: 1},
	} {
		l.Add(rec)
	}
	if got := ExpectedWaste(l, []int{0, 1, 2, 3}); got != 9 {
		t.Errorf("four-bucket retry-chain cost = %v, want exactly 9", got)
	}
}

// simulateExpectedWaste Monte-Carlo-simulates the allocation process the
// T-table models: the task's true bucket i is drawn by probability, the
// allocator draws j the same way, and whenever j < i the allocation fails,
// wasting rep_j, and the allocator redraws among buckets above j.
func simulateExpectedWaste(l *record.List, ends []int, trials int, r *rand.Rand) float64 {
	buckets := bucketsFromEnds(l, ends)
	v := make([]float64, len(buckets))
	lo := 0
	for j, e := range ends {
		v[j] = l.WeightedMean(lo, e)
		lo = e + 1
	}
	total := 0.0
	for t := 0; t < trials; t++ {
		i := sampleBucket(buckets, 0, r)
		j := sampleBucket(buckets, 0, r)
		waste := 0.0
		for j < i {
			waste += buckets[j].Rep
			j = sampleBucket(buckets, j+1, r)
		}
		waste += buckets[j].Rep - v[i]
		total += waste
	}
	return total / float64(trials)
}

func TestExhaustCostMatchesMonteCarlo(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 7))
	l := &record.List{}
	for _, v := range r.Perm(100)[:60] { // 60 distinct values, so 60 entries
		l.Add(record.Record{TaskID: l.Len() + 1, Value: float64(v), Sig: float64(l.Len() + 1)})
	}
	for _, ends := range [][]int{
		{59},
		{19, 59},
		{9, 29, 59},
		{4, 14, 34, 59},
	} {
		analytic := ExpectedWaste(l, ends)
		mc := simulateExpectedWaste(l, ends, 300000, r)
		if math.Abs(analytic-mc) > 0.02*(1+math.Abs(analytic)) {
			t.Errorf("ends %v: analytic %v vs monte-carlo %v", ends, analytic, mc)
		}
	}
}

// allConfigurations enumerates every bucket-end configuration of a list of
// n entries (the true exhaustive search Algorithm 2 describes before the
// combinations optimization).
func allConfigurations(n int) [][]int {
	var out [][]int
	var rec func(start int, cur []int)
	rec = func(start int, cur []int) {
		if start == n {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for end := start; end < n; end++ {
			rec(end+1, append(cur, end))
		}
	}
	rec(0, nil)
	return out
}

func TestExhaustiveBeatsOrMatchesSingleBucket(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%20) + 2
		r := rand.New(rand.NewPCG(seed, 13))
		l := &record.List{}
		for i := 0; i < n; i++ {
			l.Add(record.Record{TaskID: i + 1, Value: r.Float64() * 100, Sig: float64(i + 1)})
		}
		ends := ExhaustiveBucketing{}.Partition(l, nil)
		chosen := ExpectedWaste(l, ends)
		single := ExpectedWaste(l, []int{l.Entries() - 1})
		return chosen <= single+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestExhaustiveNearTrueOptimumOnSeparatedClusters(t *testing.T) {
	// On well-separated clusters the even-spacing heuristic should find the
	// same partition as the true exhaustive enumeration.
	values := []float64{10, 11, 12, 500, 510, 990, 1000}
	l := uniformSigList(values...)
	best := math.Inf(1)
	for _, cfg := range allConfigurations(len(values)) {
		if c := ExpectedWaste(l, cfg); c < best {
			best = c
		}
	}
	got := ExpectedWaste(l, ExhaustiveBucketing{}.Partition(l, nil))
	if got > best*1.25+1e-9 {
		t.Errorf("even-spacing cost %v too far above true optimum %v", got, best)
	}
}

func TestExhaustiveRespectsMaxBuckets(t *testing.T) {
	r := rand.New(rand.NewPCG(11, 11))
	l := &record.List{}
	for i := 0; i < 500; i++ {
		l.Add(record.Record{TaskID: i + 1, Value: r.Float64() * 1000, Sig: float64(i + 1)})
	}
	for _, maxB := range []int{1, 2, 3, 5, 10} {
		ends := ExhaustiveBucketing{MaxBuckets: maxB}.Partition(l, nil)
		if len(ends) > maxB {
			t.Errorf("MaxBuckets=%d produced %d buckets", maxB, len(ends))
		}
	}
	// Default cap is 10.
	ends := ExhaustiveBucketing{}.Partition(l, nil)
	if len(ends) > DefaultMaxBuckets {
		t.Errorf("default cap exceeded: %d buckets", len(ends))
	}
}

func TestExhaustiveEmptyAndSingleton(t *testing.T) {
	if got := (ExhaustiveBucketing{}).Partition(&record.List{}, nil); got != nil {
		t.Errorf("empty partition = %v", got)
	}
	l := uniformSigList(5)
	ends := ExhaustiveBucketing{}.Partition(l, nil)
	if len(ends) != 1 || ends[0] != 0 {
		t.Errorf("singleton partition = %v", ends)
	}
}

func TestExhaustiveName(t *testing.T) {
	if (ExhaustiveBucketing{}).Name() != "exhaustive" {
		t.Error("unexpected algorithm name")
	}
}

func TestExpectedWasteExported(t *testing.T) {
	l := uniformSigList(10, 30)
	if got := ExpectedWaste(l, []int{0, 1}); math.Abs(got-7.5) > 1e-12 {
		t.Errorf("ExpectedWaste = %v, want 7.5", got)
	}
}

func TestBucketCountStaysSmall(t *testing.T) {
	// Section V-A: "the number of buckets rarely exceeds 10 at any given
	// time". Exhaustive is capped by construction; greedy should also stay
	// small on the distribution families of the evaluation.
	r := rand.New(rand.NewPCG(99, 99))
	type gen func() float64
	families := map[string]gen{ // in MB
		"normal":      func() float64 { return 1000 * math.Max(8+2*r.NormFloat64(), 0.1) },
		"uniform":     func() float64 { return 1000 * (2 + 10*r.Float64()) },
		"exponential": func() float64 { return 1000 * (2 + 3*r.ExpFloat64()) },
		"bimodal": func() float64 {
			if r.Float64() < 0.5 {
				return 1000 * math.Max(3+0.4*r.NormFloat64(), 0.1)
			}
			return 1000 * math.Max(9+0.7*r.NormFloat64(), 0.1)
		},
	}
	for name, g := range families {
		l := &record.List{}
		for i := 0; i < 2000; i++ {
			l.Add(record.Record{TaskID: i + 1, Value: g(), Sig: float64(i + 1)})
		}
		eb := ExhaustiveBucketing{}.Partition(l, nil)
		if len(eb) > 10 {
			t.Errorf("%s: exhaustive produced %d buckets", name, len(eb))
		}
		gb := GreedyBucketing{}.Partition(l, nil)
		if len(gb) > 64 {
			t.Errorf("%s: greedy produced an implausible %d buckets", name, len(gb))
		}
	}
}
