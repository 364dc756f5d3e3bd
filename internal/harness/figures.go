package harness

import (
	"fmt"
	"io"

	"dynalloc/internal/core"
	"dynalloc/internal/dist"
	"dynalloc/internal/record"
	"dynalloc/internal/report"
	"dynalloc/internal/trace"
	"dynalloc/internal/workflow"
)

// Fig2Series generates the per-task consumption series of the two
// production workloads (the scatter data of Figure 2), keyed by workload
// name.
func Fig2Series(seed uint64) map[string][]trace.TaskPoint {
	return map[string][]trace.TaskPoint{
		"colmena": trace.Points(workflow.ColmenaXTB(seed)),
		"topeft":  trace.Points(workflow.TopEFT(seed)),
	}
}

// Fig4Series generates the memory-consumption series of the five synthetic
// workloads (Figure 4). tasks == 0 uses the paper's 1000.
func Fig4Series(seed uint64, tasks int) (map[string][]trace.TaskPoint, error) {
	out := make(map[string][]trace.TaskPoint)
	for _, name := range workflow.SyntheticNames() {
		w, err := workflow.Synthetic(name, tasks, seed)
		if err != nil {
			return nil, err
		}
		out[name] = trace.Points(w)
	}
	return out, nil
}

// WriteSeriesCSV dumps one named series as CSV.
func WriteSeriesCSV(w io.Writer, points []trace.TaskPoint) error {
	return trace.WriteCSV(w, points)
}

// Fig3Example reproduces the worked example of Figure 3b/3c: records are
// sampled from the N(8,2) GB memory scenario, both bucketing algorithms
// partition them, and the resulting buckets (representative value,
// probability, record count) are reported.
func Fig3Example(seed uint64, records int) *report.Table {
	if records <= 0 {
		records = 2000
	}
	r := dist.NewRand(seed)
	sampler := dist.Normal{Mean: 8, Stddev: 2, Min: 0.1} // GB, as in the paper's example
	// The list counts whole units, so it is fed MB and the table shows GB.
	const mbPerGB = 1024
	l := &record.List{}
	for i := 0; i < records; i++ {
		l.Add(record.Record{TaskID: i + 1, Value: mbPerGB * sampler.Sample(r), Sig: float64(i + 1), Time: 60})
	}
	tab := report.New(
		fmt.Sprintf("Figure 3 — bucketing a %d-record N(8,2) GB sample", records),
		"algorithm", "bucket", "range_gb", "rep_gb", "prob", "records")
	for _, alg := range []core.Algorithm{core.GreedyBucketing{}, core.ExhaustiveBucketing{}} {
		buckets := core.ComputeBuckets(l, alg)
		for i, b := range buckets {
			lo, rep := l.Value(b.Lo)/mbPerGB, b.Rep/mbPerGB
			tab.AddRow(alg.Name(), i+1,
				fmt.Sprintf("(%.2f, %.2f]", lo, rep),
				fmt.Sprintf("%.2f", rep),
				fmt.Sprintf("%.3f", b.Prob),
				b.Count)
		}
	}
	return tab
}
