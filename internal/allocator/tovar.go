package allocator

import (
	"math"
	"math/rand/v2"

	"dynalloc/internal/record"
)

// The two strategies of Tovar et al., "A Job Sizing Strategy for
// High-Throughput Scientific Workflows" (TPDS 2018), as used for comparison
// in Section V-A. Both pick a first allocation from the observed record
// distribution under an at-most-once-retry policy: a task that exhausts its
// first allocation is retried with the maximum value seen so far (and keeps
// doubling should even that fail).

// minWaste chooses the first allocation a* minimizing the expected
// time-weighted resource waste
//
//	E[waste](a) = Σ_{v<=a} t_v·(a-v) + Σ_{v>a} t_v·(a + m - v)
//
// over the observed records, where m is the maximum seen value. Candidates
// are the observed values themselves, one per entry of the record list;
// prefix sums make the sweep O(entries) after sorting. The Allocator memoises the result until the next Observe, so the
// sweep runs once per observation however often the scheduler asks.
type minWaste struct {
	recs record.List
}

func (mw *minWaste) Predict(*rand.Rand) float64 {
	n := mw.recs.Len()
	if n == 0 {
		return 0
	}
	m := mw.recs.MaxValue()
	e := mw.recs.Entries()
	tAll := mw.recs.TimeSum(0, e-1)
	vtAll := mw.recs.ValueTimeSum(0, e-1)
	best := math.Inf(1)
	bestA := m
	for k := 0; k < e; k++ {
		a := mw.recs.Value(k)
		// Records of entries k+1..e-1 exceed a and pay a full failed
		// allocation a·t plus the retry fragmentation (m - v)·t.
		var tHi float64
		if k+1 < e {
			tHi = mw.recs.TimeSum(k+1, e-1)
		}
		waste := a*tAll - vtAll + m*tHi
		if waste < best {
			best = waste
			bestA = a
		}
	}
	return bestA
}

func (mw *minWaste) Retry(prev float64, _ *rand.Rand) float64 {
	return tovarRetry(&mw.recs, prev)
}

func (mw *minWaste) Observe(rec record.Record) { mw.recs.Add(rec) }

func (mw *minWaste) Len() int { return mw.recs.Len() }

// maxThroughput chooses the first allocation maximizing the expected number
// of task completions per unit of allocated resource: a smaller allocation
// packs more concurrent tasks on a fixed pool, discounted by its success
// probability. Candidates are the observed values, one per entry; the score is
// P(v <= a) / a, time-weighted to favour long-running successes.
type maxThroughput struct {
	recs record.List
}

func (mt *maxThroughput) Predict(*rand.Rand) float64 {
	n := mt.recs.Len()
	if n == 0 {
		return 0
	}
	e := mt.recs.Entries()
	tAll := mt.recs.TimeSum(0, e-1)
	best := math.Inf(-1)
	bestA := mt.recs.MaxValue()
	for k := 0; k < e; k++ {
		a := mt.recs.Value(k)
		if a <= 0 {
			continue
		}
		pSuccess := mt.recs.TimeSum(0, k) / tAll
		score := pSuccess / a
		if score > best {
			best = score
			bestA = a
		}
	}
	return bestA
}

func (mt *maxThroughput) Retry(prev float64, _ *rand.Rand) float64 {
	return tovarRetry(&mt.recs, prev)
}

func (mt *maxThroughput) Observe(rec record.Record) { mt.recs.Add(rec) }

func (mt *maxThroughput) Len() int { return mt.recs.Len() }

// tovarRetry implements the at-most-once-retry policy: escalate straight to
// the maximum seen value, and keep doubling if even that proves too small.
func tovarRetry(recs *record.List, prev float64) float64 {
	if m := recs.MaxValue(); m > prev {
		return m
	}
	if prev <= 0 {
		return 1
	}
	return prev * 2
}
