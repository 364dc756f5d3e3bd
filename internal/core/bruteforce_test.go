package core

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"dynalloc/internal/record"
)

// BruteForce is the literal Algorithm 2 without the combinations
// optimization of Section IV-D: it enumerates every possible bucket
// configuration of the record list's entries and scores each with
// compute_exhaust_cost. Its cost grows exponentially (2^(n-1)
// configurations over n entries), so it is only usable on small lists; it exists as the
// ground-truth reference the optimized ExhaustiveBucketing is validated
// against, and as the exact solver for the worked examples.
type BruteForce struct {
	// MaxEntries guards against accidental exponential blow-ups; lists of
	// more entries than this panic. Zero means 20.
	MaxEntries int
}

// Name implements Algorithm.
func (BruteForce) Name() string { return "brute-force" }

// Partition implements Algorithm.
func (b BruteForce) Partition(l *record.List, s *Scratch) []int {
	v := l.View()
	n := v.Len()
	if n == 0 {
		return nil
	}
	maxN := b.MaxEntries
	if maxN <= 0 {
		maxN = 20
	}
	if n > maxN {
		panic("core: BruteForce.Partition on a list of more than MaxEntries entries")
	}
	if s == nil {
		s = &Scratch{}
	}
	best := []int{n - 1}
	bestCost := computeExhaustCost(v, best, s)
	// Every subset of {0..n-2} as interior bucket ends.
	ends := make([]int, 0, n)
	var rec func(next int)
	rec = func(next int) {
		if next == n-1 {
			cfg := append(append([]int{}, ends...), n-1)
			if cost := computeExhaustCost(v, cfg, s); cost < bestCost {
				bestCost = cost
				best = cfg
			}
			return
		}
		rec(next + 1) // next is not a bucket end
		ends = append(ends, next)
		rec(next + 1) // next is a bucket end
		ends = ends[:len(ends)-1]
	}
	rec(0)
	return best
}

// OptimalityGap returns how far a partition's expected waste is above the
// brute-force optimum for the same records, as a ratio >= 1 (1 means the
// partition is optimal). It is a testing/validation helper for small lists.
func OptimalityGap(l *record.List, ends []int, maxEntries int) float64 {
	bf := BruteForce{MaxEntries: maxEntries}
	optimal := ExpectedWaste(l, bf.Partition(l, nil))
	got := ExpectedWaste(l, ends)
	if optimal <= 0 {
		if got <= 0 {
			return 1
		}
		return math.Inf(1)
	}
	return got / optimal
}

func TestBruteForceMatchesHandEnumeration(t *testing.T) {
	// Two far-apart clusters: the optimum is clearly the two-bucket split.
	l := uniformSigList(10, 11, 1000, 1001)
	ends := BruteForce{}.Partition(l, nil)
	if len(ends) < 2 {
		t.Fatalf("ends = %v, expected a split", ends)
	}
	has := false
	for _, e := range ends {
		if e == 1 {
			has = true
		}
	}
	if !has {
		t.Errorf("ends = %v, want a break after index 1", ends)
	}
}

func TestBruteForceGuards(t *testing.T) {
	if got := (BruteForce{}).Partition(&record.List{}, nil); got != nil {
		t.Error("empty list should partition to nil")
	}
	if (BruteForce{}).Name() != "brute-force" {
		t.Error("name")
	}
	defer func() {
		if recover() == nil {
			t.Error("oversized list should panic")
		}
	}()
	big := &record.List{}
	for i := 0; i < 30; i++ {
		big.Add(record.Record{TaskID: i + 1, Value: float64(i), Sig: 1})
	}
	BruteForce{}.Partition(big, nil)
}

// Property: the brute-force partition is never worse than the single
// bucket, the greedy partition, or the optimized exhaustive partition —
// it is the true optimum of the cost model.
func TestBruteForceIsOptimal(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%10) + 2
		r := rand.New(rand.NewPCG(seed, 41))
		l := &record.List{}
		for i := 0; i < n; i++ {
			l.Add(record.Record{TaskID: i + 1, Value: r.Float64() * 100, Sig: float64(i + 1)})
		}
		optimal := ExpectedWaste(l, BruteForce{}.Partition(l, nil))
		for _, alg := range []Algorithm{GreedyBucketing{}, ExhaustiveBucketing{}} {
			if ExpectedWaste(l, alg.Partition(l, nil)) < optimal-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// The quality of the even-spacing heuristic: on random lists its expected
// waste stays within a bounded factor of the brute-force optimum.
func TestExhaustiveHeuristicGapIsBounded(t *testing.T) {
	r := rand.New(rand.NewPCG(4, 44))
	worst := 1.0
	for trial := 0; trial < 60; trial++ {
		n := 6 + r.IntN(8)
		l := &record.List{}
		for i := 0; i < n; i++ {
			l.Add(record.Record{TaskID: i + 1, Value: r.Float64()*100 + 1, Sig: float64(i + 1)})
		}
		gap := OptimalityGap(l, ExhaustiveBucketing{}.Partition(l, nil), 0)
		if math.IsInf(gap, 1) {
			t.Fatalf("trial %d: infinite gap", trial)
		}
		worst = math.Max(worst, gap)
	}
	if worst > 3.0 {
		t.Errorf("even-spacing heuristic up to %.2fx above optimum; expected a small constant", worst)
	}
	t.Logf("worst even-spacing gap over 60 random lists: %.3fx", worst)
}

func TestOptimalityGapPerfect(t *testing.T) {
	l := uniformSigList(10, 11, 1000, 1001)
	ends := BruteForce{}.Partition(l, nil)
	if gap := OptimalityGap(l, ends, 0); math.Abs(gap-1) > 1e-12 {
		t.Errorf("gap of the optimum itself = %v", gap)
	}
}
