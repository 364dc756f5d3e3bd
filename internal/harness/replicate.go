package harness

import (
	"context"
	"fmt"

	"dynalloc/internal/allocator"
	"dynalloc/internal/report"
	"dynalloc/internal/resources"
	"dynalloc/internal/stats"
)

// CellStats aggregates one (workload, algorithm) cell across replicated
// runs with different seeds, giving the reproduction statistical error
// bars the paper's single runs lack.
type CellStats struct {
	Workload  string
	Algorithm allocator.Name
	AWE       map[resources.Kind]stats.Summary
	Retries   stats.Summary
}

// RunGridReplicatedContext runs the (workload x algorithm) grid once per seed
// (opts.Seed, opts.Seed+1, ...) and aggregates per-cell statistics. Each
// replica's grid fans its cells across opts.Parallelism workers, and
// cancellation aborts the sweep with an error wrapping sim.ErrCanceled.
// Aggregation is replica-ordered, so the statistics are identical at any
// parallelism.
func RunGridReplicatedContext(ctx context.Context, opts Options, seeds int) ([]CellStats, error) {
	if seeds <= 0 {
		seeds = 1
	}
	opts = opts.withDefaults()
	type key = cellKey
	awes := make(map[key]map[resources.Kind][]float64)
	retries := make(map[key][]float64)
	var order []key
	for s := 0; s < seeds; s++ {
		runOpts := opts
		runOpts.Seed = opts.Seed + uint64(s)
		cells, err := RunGridContext(ctx, runOpts)
		if err != nil {
			return nil, fmt.Errorf("harness: seed %d: %w", runOpts.Seed, err)
		}
		for _, c := range cells {
			k := key{c.Workload, c.Algorithm}
			if awes[k] == nil {
				awes[k] = make(map[resources.Kind][]float64)
				order = append(order, k)
			}
			for _, kind := range resources.AllocatedKinds() {
				awes[k][kind] = append(awes[k][kind], c.AWE(kind))
			}
			retries[k] = append(retries[k], float64(c.Summary.Retries))
		}
	}
	out := make([]CellStats, 0, len(order))
	for _, k := range order {
		cs := CellStats{
			Workload:  k.wf,
			Algorithm: k.alg,
			AWE:       make(map[resources.Kind]stats.Summary),
			Retries:   stats.Summarize(retries[k]),
		}
		for kind, vals := range awes[k] {
			cs.AWE[kind] = stats.Summarize(vals)
		}
		out = append(out, cs)
	}
	return out, nil
}

// ReplicatedTable renders the replicated grid for one resource kind as
// "mean% ± sd" cells.
func ReplicatedTable(cells []CellStats, opts Options, kind resources.Kind, seeds int) *report.Table {
	opts = opts.withDefaults()
	byKey := make(map[cellKey]CellStats, len(cells))
	for _, c := range cells {
		byKey[cellKey{c.Workload, c.Algorithm}] = c
	}
	header := append([]string{"workflow"}, algorithmHeader(opts.Algorithms)...)
	tab := report.New(
		fmt.Sprintf("Figure 5 (replicated x%d) — AWE (%s), mean ± sd", seeds, kind),
		header...)
	for _, wf := range opts.Workloads {
		row := []any{wf}
		for _, alg := range opts.Algorithms {
			cell := "-"
			if c, ok := byKey[cellKey{wf, alg}]; ok {
				s := c.AWE[kind]
				cell = fmt.Sprintf("%.1f%% ± %.1f", 100*s.Mean, 100*s.Stddev)
			}
			row = append(row, cell)
		}
		tab.AddRow(row...)
	}
	return tab
}
