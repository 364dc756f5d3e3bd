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

// benchRecordSlice draws n bimodal records (the Figure 3b shape, in MB:
// N(3000, 400) and N(9000, 700)) with the paper's task-ID significance
// weighting, in submission order.
func benchRecordSlice(n int, seed uint64) []record.Record {
	r := rand.New(rand.NewPCG(seed, 0xBE))
	recs := make([]record.Record, n)
	for i := range recs {
		v := 9 + 0.7*r.NormFloat64()
		if r.Float64() < 0.5 {
			v = 3 + 0.4*r.NormFloat64()
		}
		recs[i] = record.Record{TaskID: i + 1, Value: 1000 * math.Max(v, 0.1), Sig: float64(i + 1), Time: 1}
	}
	return recs
}

// benchRecords is the list of benchRecordSlice(n, seed).
func benchRecords(n int, seed uint64) *record.List {
	l := &record.List{}
	for _, rec := range benchRecordSlice(n, seed) {
		l.Add(rec)
	}
	return l
}

// settledRecords is benchRecords(n, 42) with its entries settled, so a
// partition pays for nothing else.
func settledRecords(n int) *record.List {
	l := benchRecords(n, 42)
	l.Values()
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
// recompute for the batch of one). The state is rebuilt from the same n
// records, untimed, every steadyPeriod iterations, so it never holds more
// than n+steadyPeriod records and ns/op does not depend on b.N.
func benchIncremental(b *testing.B, alg Algorithm, n int) {
	b.Helper()
	const steadyPeriod = 64
	base := benchRecordSlice(n, 42)
	r := rand.New(rand.NewPCG(42, 0xBE))
	var s *State
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%steadyPeriod == 0 {
			b.StopTimer()
			s = NewState(alg)
			for _, rec := range base {
				s.Add(rec)
			}
			s.Buckets()
			b.StartTimer()
		}
		id := n + i%steadyPeriod + 1
		s.Add(record.Record{TaskID: id, Value: 1000 * (3 + 7*r.Float64()), Sig: float64(id), Time: 1})
		if s.Predict(r) <= 0 {
			b.Fatal("no prediction")
		}
	}
}

// TestIncrementalAllocatesNothing pins what the incremental benchmarks
// measure: on a warm state, an Add and the Predict that pays its recompute
// allocate nothing. The record columns still grow now and then;
// AllocsPerRun's average over the runs rounds that amortized growth down, as
// the benchmarks' allocs/op does.
func TestIncrementalAllocatesNothing(t *testing.T) {
	for _, alg := range []Algorithm{GreedyBucketing{}, ExhaustiveBucketing{}} {
		s := NewState(alg)
		for _, rec := range benchRecordSlice(1000, 42) {
			s.Add(rec)
		}
		s.Buckets()
		r := rand.New(rand.NewPCG(42, 0xBE))
		id := s.Len()
		got := testing.AllocsPerRun(100, func() {
			id++
			s.Add(record.Record{TaskID: id, Value: 1000 * (3 + 7*r.Float64()), Sig: float64(id), Time: 1})
			s.Predict(r)
		})
		if got != 0 {
			t.Errorf("%T: a warm Add and Predict allocate %v times, want 0", alg, got)
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

// BenchmarkCorePartitionGreedyGrowing measures one greedy partition on the
// shape a live recompute sees: a bimodal list that grows from 1 000 to 6 000
// records in 4-record batches, each batch added and merged into the entries
// untimed, then starts over. Only the partitions are timed.
func BenchmarkCorePartitionGreedyGrowing(b *testing.B) {
	const first, last, batch = 1000, 6000, 4
	recs := benchRecordSlice(last, 42)
	var (
		l *record.List
		s Scratch
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if l == nil || l.Len()+batch > last {
			l = &record.List{}
			for _, rec := range recs[:first] {
				l.Add(rec)
			}
		}
		for _, rec := range recs[l.Len():][:batch] {
			l.Add(rec)
		}
		l.Values()
		b.StartTimer()
		if ends := (GreedyBucketing{}).Partition(l, &s); len(ends) == 0 {
			b.Fatal("empty partition")
		}
	}
}

// benchStateGrowing measures the recompute line of a live bucketing state:
// four Adds, then Buckets, which rebuilds the record list's entries, then
// partitions them and materializes the buckets, on a bimodal list that grows
// from 1 000 to 6 000 records and then starts over (untimed). It is the work
// Allocate pays under the allocator lock after a run of completions, so a
// CPU profile of this benchmark shows the recompute's lines:
//
//	go test ./internal/core -run '^$' -bench StateRecomputeGrowing -cpuprofile cpu.out
func benchStateGrowing(b *testing.B, alg Algorithm) {
	const first, last, batch = 1000, 6000, 4
	recs := benchRecordSlice(last, 42)
	var s *State
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s == nil || s.Len()+batch > last {
			b.StopTimer()
			s = NewState(alg)
			for _, rec := range recs[:first] {
				s.Add(rec)
			}
			s.Buckets()
			b.StartTimer()
		}
		for _, rec := range recs[s.Len():][:batch] {
			s.Add(rec)
		}
		if len(s.Buckets()) == 0 {
			b.Fatal("no buckets")
		}
	}
}

func BenchmarkStateRecomputeGrowing(b *testing.B) {
	b.Run("greedy", func(b *testing.B) { benchStateGrowing(b, GreedyBucketing{}) })
	b.Run("exhaustive", func(b *testing.B) { benchStateGrowing(b, ExhaustiveBucketing{}) })
}
