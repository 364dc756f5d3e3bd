package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"dynalloc/internal/record"
)

// The bucketing-core benchmark suite. Cold scenarios measure one full
// partition of a settled record list — the unit of work a completion batch
// triggers (Section V-C) — and incremental scenarios measure the State lazy
// path end to end: one record lands, the next prediction pays one rebuild
// merge, one partition, and one bucket materialization.

// benchRecords builds an n-record bimodal list (the Figure 3b shape) with
// the paper's task-ID significance weighting.
func benchRecords(n int, seed uint64) *record.List {
	r := rand.New(rand.NewPCG(seed, 0xBE))
	l := &record.List{}
	for i := 0; i < n; i++ {
		v := 9 + 0.7*r.NormFloat64()
		if r.Float64() < 0.5 {
			v = 3 + 0.4*r.NormFloat64()
		}
		l.Add(record.Record{TaskID: i + 1, Value: math.Max(v, 0.1), Sig: float64(i + 1), Time: 1})
	}
	return l
}

// settledRecords is benchRecords(n, 42) with its sorted view settled, so a
// partition pays for nothing else.
func settledRecords(n int) *record.List {
	l := benchRecords(n, 42)
	l.Sorted()
	return l
}

// benchPartitionCold measures repeated partitions of a settled list.
func benchPartitionCold(b *testing.B, alg Algorithm, n int) {
	b.Helper()
	l := settledRecords(n)
	var s Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ends := alg.Partition(l, &s); len(ends) == 0 {
			b.Fatal("empty partition")
		}
	}
}

// TestColdPartitionAllocatesNothing pins what the cold benchmarks measure:
// once the Scratch has grown, a partition of a settled list allocates
// nothing.
func TestColdPartitionAllocatesNothing(t *testing.T) {
	for _, n := range []int{1000, 10000} {
		l := settledRecords(n)
		for _, alg := range []Algorithm{GreedyBucketing{}, ExhaustiveBucketing{}} {
			var s Scratch
			if got := testing.AllocsPerRun(10, func() { alg.Partition(l, &s) }); got != 0 {
				t.Errorf("%T at %d records: a partition allocates %v times, want 0", alg, n, got)
			}
		}
	}
}

// benchIncremental measures the allocator-visible cycle on a warm state:
// one observed record followed by one prediction (which pays the lazy
// recompute for the batch of one).
func benchIncremental(b *testing.B, alg Algorithm, n int) {
	b.Helper()
	s := NewState(alg)
	r := rand.New(rand.NewPCG(42, 0xBE))
	for _, rec := range benchRecords(n, 42).All() {
		s.Add(rec)
	}
	s.Buckets()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := n + i + 1
		s.Add(record.Record{TaskID: id, Value: 3 + 7*r.Float64(), Sig: float64(id), Time: 1})
		if s.Predict(r) <= 0 {
			b.Fatal("no prediction")
		}
	}
}

func BenchmarkCorePartitionGreedy1k(b *testing.B) { benchPartitionCold(b, GreedyBucketing{}, 1000) }

func BenchmarkCorePartitionGreedy10k(b *testing.B) { benchPartitionCold(b, GreedyBucketing{}, 10000) }

func BenchmarkCorePartitionExhaustive1k(b *testing.B) {
	benchPartitionCold(b, ExhaustiveBucketing{}, 1000)
}

func BenchmarkCorePartitionExhaustive10k(b *testing.B) {
	benchPartitionCold(b, ExhaustiveBucketing{}, 10000)
}

func BenchmarkCoreIncrementalGreedy10k(b *testing.B) { benchIncremental(b, GreedyBucketing{}, 10000) }

func BenchmarkCoreIncrementalExhaustive10k(b *testing.B) {
	benchIncremental(b, ExhaustiveBucketing{}, 10000)
}
