package core

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"dynalloc/internal/record"
)

func newList(values ...float64) *record.List {
	l := &record.List{}
	for i, v := range values {
		l.Add(record.Record{TaskID: i + 1, Value: v, Sig: float64(i + 1), Time: 1})
	}
	return l
}

func uniformSigList(values ...float64) *record.List {
	l := &record.List{}
	for i, v := range values {
		l.Add(record.Record{TaskID: i + 1, Value: v, Sig: 1, Time: 1})
	}
	return l
}

func TestBucketsFromEndsSingle(t *testing.T) {
	l := uniformSigList(1, 2, 3, 4)
	bs := bucketsFromEnds(l, []int{3})
	if len(bs) != 1 {
		t.Fatalf("got %d buckets, want 1", len(bs))
	}
	b := bs[0]
	if b.Lo != 0 || b.Hi != 3 || b.Rep != 4 || b.Count != 4 {
		t.Errorf("bucket = %+v", b)
	}
	if math.Abs(b.Prob-1) > 1e-12 {
		t.Errorf("single bucket prob = %v, want 1", b.Prob)
	}
}

func TestBucketsFromEndsPartition(t *testing.T) {
	l := uniformSigList(1, 2, 10, 11, 12)
	bs := bucketsFromEnds(l, []int{1, 4})
	if len(bs) != 2 {
		t.Fatalf("got %d buckets", len(bs))
	}
	if bs[0].Rep != 2 || bs[1].Rep != 12 {
		t.Errorf("reps = %v, %v", bs[0].Rep, bs[1].Rep)
	}
	if math.Abs(bs[0].Prob-0.4) > 1e-12 || math.Abs(bs[1].Prob-0.6) > 1e-12 {
		t.Errorf("probs = %v, %v", bs[0].Prob, bs[1].Prob)
	}
	if bs[0].Count != 2 || bs[1].Count != 3 {
		t.Errorf("counts = %d, %d", bs[0].Count, bs[1].Count)
	}
}

func TestBucketsFromEndsSignificanceWeighting(t *testing.T) {
	// Significance = task ID (paper Section V-A): later records weigh more.
	l := &record.List{}
	l.Add(record.Record{TaskID: 1, Value: 10, Sig: 1})
	l.Add(record.Record{TaskID: 2, Value: 20, Sig: 9})
	bs := bucketsFromEnds(l, []int{0, 1})
	if math.Abs(bs[0].Prob-0.1) > 1e-12 || math.Abs(bs[1].Prob-0.9) > 1e-12 {
		t.Errorf("probs = %v, %v, want 0.1, 0.9", bs[0].Prob, bs[1].Prob)
	}
}

func TestSampleBucketDistribution(t *testing.T) {
	buckets := []Bucket{
		{Rep: 1, Prob: 0.2},
		{Rep: 2, Prob: 0.5},
		{Rep: 3, Prob: 0.3},
	}
	r := rand.New(rand.NewPCG(1, 1))
	counts := make([]int, 3)
	const n = 60000
	for i := 0; i < n; i++ {
		counts[sampleBucket(buckets, 0, r)]++
	}
	for i, want := range []float64{0.2, 0.5, 0.3} {
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("bucket %d frequency = %v, want ~%v", i, got, want)
		}
	}
}

func TestSampleBucketFromOffsetRenormalizes(t *testing.T) {
	buckets := []Bucket{
		{Rep: 1, Prob: 0.9},
		{Rep: 2, Prob: 0.05},
		{Rep: 3, Prob: 0.05},
	}
	r := rand.New(rand.NewPCG(2, 2))
	const n = 20000
	counts := make(map[int]int)
	for i := 0; i < n; i++ {
		counts[sampleBucket(buckets, 1, r)]++
	}
	if counts[0] != 0 {
		t.Fatal("sampleBucket(from=1) chose an excluded bucket")
	}
	frac := float64(counts[1]) / n
	if math.Abs(frac-0.5) > 0.02 {
		t.Errorf("renormalized frequency = %v, want ~0.5", frac)
	}
}

func TestSampleBucketZeroMass(t *testing.T) {
	buckets := []Bucket{{Rep: 1, Prob: 0}, {Rep: 2, Prob: 0}}
	r := rand.New(rand.NewPCG(3, 3))
	if got := sampleBucket(buckets, 0, r); got != 1 {
		t.Errorf("zero-mass sampling = %d, want last index", got)
	}
}

// Property: for any record multiset and any algorithm, the computed buckets
// form an exact partition of the entries with increasing representatives
// summing to probability 1, each rep is the maximum value within its bucket,
// and the buckets' counts add up to every record.
func TestPartitionInvariants(t *testing.T) {
	algs := []Algorithm{GreedyBucketing{}, ExhaustiveBucketing{}}
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%60) + 1
		r := rand.New(rand.NewPCG(seed, 77))
		l := &record.List{}
		for i := 0; i < n; i++ {
			l.Add(record.Record{
				TaskID: i + 1,
				Value:  math.Abs(r.NormFloat64())*100 + 1,
				Sig:    float64(i + 1),
				Time:   1,
			})
		}
		for _, alg := range algs {
			ends := alg.Partition(l, nil)
			if len(ends) == 0 || ends[len(ends)-1] != l.Entries()-1 {
				return false
			}
			for i := 1; i < len(ends); i++ {
				if ends[i] <= ends[i-1] {
					return false
				}
			}
			bs := bucketsFromEnds(l, ends)
			probSum := 0.0
			covered := 0
			prevRep := math.Inf(-1)
			values := l.Values()
			for _, b := range bs {
				probSum += b.Prob
				covered += b.Count
				if b.Rep <= prevRep {
					return false
				}
				prevRep = b.Rep
				maxInBucket := math.Inf(-1)
				for i := b.Lo; i <= b.Hi; i++ {
					maxInBucket = math.Max(maxInBucket, values[i])
				}
				if b.Rep != maxInBucket {
					return false
				}
			}
			if covered != n || math.Abs(probSum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
