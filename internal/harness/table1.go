package harness

import (
	"context"
	"fmt"
	"time"

	"dynalloc/internal/core"
	"dynalloc/internal/dist"
	"dynalloc/internal/record"
	"dynalloc/internal/report"
	"dynalloc/internal/sim"
)

// Table1Sizes are the record-list sizes of the paper's Table I.
var Table1Sizes = []int{10, 200, 1000, 2000, 5000}

// Table1Row is the measured cost of one algorithm at one record count.
type Table1Row struct {
	Algorithm string
	Records   int
	Mean      time.Duration // mean time to recompute the state + derive an allocation
	Buckets   int           // bucket count of the final state
}

// Table1 measures, for Greedy and Exhaustive Bucketing, the average time to
// compute a new bucketing state and derive a new allocation as the record
// list grows — the paper's Table I. Records are memory values sampled from
// the N(8,2) GB scenario of Figure 3b with significance equal to task ID.
// reps controls how many measurements are averaged per cell (0 = 10).
func Table1(seed uint64, reps int) []Table1Row {
	rows, _ := Table1Context(context.Background(), seed, reps)
	return rows
}

// Table1Context is Table1 under a context, checked between cells. Timing
// cells run strictly sequentially regardless of harness parallelism: they
// measure wall-clock cost, and concurrent cells would contend for the CPU
// and corrupt each other's measurements.
func Table1Context(ctx context.Context, seed uint64, reps int) ([]Table1Row, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if reps <= 0 {
		reps = 10
	}
	r := dist.NewRand(seed)
	sampler := dist.Normal{Mean: 8192, Stddev: 2048, Min: 64}
	var rows []Table1Row
	for _, alg := range []core.Algorithm{core.GreedyBucketing{}, core.ExhaustiveBucketing{}} {
		for _, n := range Table1Sizes {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("harness: table 1: %w: %w", sim.ErrCanceled, err)
			}
			l := &record.List{}
			for i := 0; i < n; i++ {
				l.Add(record.Record{TaskID: i + 1, Value: sampler.Sample(r), Sig: float64(i + 1), Time: 60})
			}
			// Warm the sorted view once so the measurement isolates the
			// worst-case per-allocation work the paper times: partitioning
			// the list, materializing buckets, and sampling an allocation.
			l.Values()
			var buckets []core.Bucket
			start := time.Now()
			for rep := 0; rep < reps; rep++ {
				buckets = core.ComputeBuckets(l, alg)
				core.SampleAllocation(buckets, r)
			}
			rows = append(rows, Table1Row{
				Algorithm: alg.Name(),
				Records:   n,
				Mean:      time.Since(start) / time.Duration(reps),
				Buckets:   len(buckets),
			})
		}
	}
	return rows, nil
}

// Table1Report renders Table I in the paper's layout: one row per
// algorithm, one column per record count, cells in microseconds.
func Table1Report(rows []Table1Row) *report.Table {
	header := []string{"algorithm"}
	for _, n := range Table1Sizes {
		header = append(header, fmt.Sprint(n))
	}
	tab := report.New("Table I — mean time (µs) to compute a bucketing state and derive an allocation", header...)
	type rowKey struct {
		alg     string
		records int
	}
	byKey := make(map[rowKey]Table1Row, len(rows))
	for _, r := range rows {
		byKey[rowKey{r.Algorithm, r.Records}] = r
	}
	for _, algName := range []string{"greedy", "exhaustive"} {
		row := []any{algName}
		for _, n := range Table1Sizes {
			cell := "-"
			if r, ok := byKey[rowKey{algName, n}]; ok {
				cell = fmt.Sprintf("%.1f", float64(r.Mean.Nanoseconds())/1e3)
			}
			row = append(row, cell)
		}
		tab.AddRow(row...)
	}
	return tab
}
