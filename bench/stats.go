package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dynalloc/internal/stats"
)

// percentile returns the p-th percentile (0 < p < 100) of an ascending
// slice by the nearest-rank rule, so the value is always one that was
// measured.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailPercentiles are the tail candidates of the reporting rule, ascending,
// each with the share of samples beyond it as 1/beyond.
var tailPercentiles = []struct {
	p      float64
	beyond int
}{{90, 10}, {99, 100}, {99.9, 1000}, {99.99, 10000}}

// tailPercentile applies the reporting rule "the median plus the highest
// percentile that has at least ten samples beyond it": it returns the
// highest candidate p with n·(1−p/100) ≥ 10, and ok == false when even p90
// has fewer than ten samples beyond it (n < 100).
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range tailPercentiles {
		if n/c.beyond >= 10 {
			p, ok = c.p, true
		}
	}
	return p, ok
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median is the 0.5-quantile: the middle value, or the mean of the two
// middle values; 0 for an empty slice.
func median(v []float64) float64 { return stats.Quantile(v, 0.5) }

// quartileSpread returns (Q3−Q1)/median with the quartiles computed the way
// Python's statistics.quantiles(values, n=4) computes them (the exclusive
// method), so the spread this benchmark prints is the one its acceptance
// rule is stated in. Fewer than two values, or a zero median, give 0.
func quartileSpread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := sortedCopy(v)
	n := len(s)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs((q(3) - q(1)) / med)
}

// sampledTimer counts every call to a layer and times one call in `every`,
// scaling the timed total back up. It exists because the layers measured
// here are called millions of times per second (Policy.Allocate runs
// hundreds of times per task on the deep-queue workloads): two clock reads
// per call would cost more than the call.
//
// The timed calls run ~100 ns, the same order as the clock reads around
// them, so the timer calibrates itself in place: as often as it times a call
// it times an empty interval — two clock reads with nothing between — under
// the same cache and scheduler conditions, and subtracts the median of those
// from every timed call. Safe for concurrent use.
type sampledTimer struct {
	every uint64
	calls atomic.Uint64

	mu      sync.Mutex
	samples []float64 // seconds, one per timed call, clock cost included
	nulls   []float64 // seconds, one per empty interval
}

// begin registers a call; when timed is true the caller must pass start to
// end after the call returns.
func (t *sampledTimer) begin() (start time.Time, timed bool) {
	n := t.calls.Add(1)
	if t.every <= 1 {
		return time.Now(), true
	}
	// Which calls are timed is a hash of the call number, not every
	// `every`-th call: the layers are called in passes of regular length, and
	// a fixed stride would keep landing on the same position in the pass.
	switch mix(n) % t.every {
	case 0:
		return time.Now(), true
	case 1:
		t0 := time.Now()
		d := time.Since(t0).Seconds()
		t.mu.Lock()
		t.nulls = append(t.nulls, d)
		t.mu.Unlock()
	}
	return time.Time{}, false
}

// mix is the 64-bit finalizer of MurmurHash3: a cheap, stateless way to
// spread consecutive call numbers.
func mix(n uint64) uint64 {
	n ^= n >> 33
	n *= 0xff51afd7ed558ccd
	n ^= n >> 33
	n *= 0xc4ceb9fe1a85ec53
	n ^= n >> 33
	return n
}

func (t *sampledTimer) end(start time.Time) time.Time {
	now := time.Now()
	t.mu.Lock()
	t.samples = append(t.samples, now.Sub(start).Seconds())
	t.mu.Unlock()
	return now
}

// add records an externally measured duration as a timed call.
func (t *sampledTimer) add(d time.Duration) {
	t.calls.Add(1)
	t.mu.Lock()
	t.samples = append(t.samples, d.Seconds())
	t.mu.Unlock()
}

func (t *sampledTimer) count() float64 { return float64(t.calls.Load()) }

// busy estimates the total seconds spent in the layer: the timed calls'
// mean, less the clock's own cost, times the number of calls. With every
// call timed and no calibration the estimate is the plain sum.
func (t *sampledTimer) busy() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.samples) == 0 {
		return 0
	}
	mean := stats.Mean(t.samples) - median(t.nulls)
	if mean < 0 {
		return 0
	}
	return mean * float64(t.calls.Load())
}

// percentileUS returns the p-th percentile of the timed calls in µs, less
// the clock's own cost.
func (t *sampledTimer) percentileUS(p float64) float64 {
	t.mu.Lock()
	s := sortedCopy(t.samples)
	null := median(t.nulls)
	t.mu.Unlock()
	if v := percentile(s, p) - null; v > 0 {
		return v * 1e6
	}
	return 0
}
