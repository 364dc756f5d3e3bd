// Package harness reproduces the paper's evaluation (Section V): it runs
// the experiment grids behind every figure and table and renders the same
// rows/series the paper reports.
//
//	Figure 2  — per-task consumption series of ColmenaXTB and TopEFT
//	Figure 3  — worked example of Greedy Bucketing on an N(8,2) GB sample
//	Figure 4  — memory series of the five synthetic workflows
//	Figure 5  — Absolute Workflow Efficiency, 7 workflows x 7 algorithms
//	Figure 6  — waste split into internal fragmentation vs failed
//	            allocation, 7 workflows x 6 algorithms
//	Table I   — time to recompute a bucketing state and derive an
//	            allocation at 10..5000 records
package harness

import (
	"context"
	"fmt"
	"time"

	"dynalloc/internal/allocator"
	"dynalloc/internal/metrics"
	"dynalloc/internal/opportunistic"
	"dynalloc/internal/report"
	"dynalloc/internal/resources"
	"dynalloc/internal/sim"
	"dynalloc/internal/workflow"
)

// Options configure an experiment grid run.
type Options struct {
	// Seed drives workload generation, allocator choices, and the pool.
	Seed uint64
	// Tasks scales the synthetic workloads (0 = the paper's 1000).
	Tasks int
	// Model is the task consumption profile (zero value = RampEarly).
	Model sim.ConsumptionModel
	// Pool is the worker pool every cell runs on. Nil is the sequential
	// configuration (sim.RunSequential): the DES on one unbounded worker
	// with a submit window of 1. AWE is pool-independent (Section II-C), so
	// both answer the paper's questions; an opportunistic pool such as
	// opportunistic.PaperPool() additionally exercises placement,
	// concurrency, and churn.
	Pool opportunistic.Model
	// Workloads restricts the workload set (nil = all seven).
	Workloads []string
	// Traces adds recorded run-log files as extra grid rows (the "trace"
	// axis): each trace's task stream is materialized via runlog.TraceSource
	// and swept under every algorithm like a generated workload, appearing
	// as workload TraceWorkloadName(path).
	Traces []string
	// Algorithms restricts the algorithm set (nil = all seven).
	Algorithms []allocator.Name
	// Parallelism bounds how many grid cells run concurrently
	// (0 = GOMAXPROCS, 1 = sequential). Results are identical at any
	// parallelism: each cell's seed derives from its grid position rather
	// than completion order, each cell owns its own Policy instance, and
	// workflows are shared read-only.
	Parallelism int
	// Progress, when non-nil, is called after every completed cell. Calls
	// are serialized, so the callback needs no locking of its own.
	Progress func(Progress)
}

func (o Options) withDefaults() Options {
	if len(o.Workloads) == 0 {
		o.Workloads = workflow.Names()
	}
	// Traces join the workload axis under their grid row names, so the
	// figure renderers (which iterate o.Workloads for rows) include them
	// without special-casing.
	for _, p := range o.Traces {
		name := TraceWorkloadName(p)
		seen := false
		for _, wf := range o.Workloads {
			if wf == name {
				seen = true
				break
			}
		}
		if !seen {
			o.Workloads = append(append([]string(nil), o.Workloads...), name)
		}
	}
	if len(o.Algorithms) == 0 {
		o.Algorithms = allocator.Names()
	}
	return o
}

// Cell is the outcome of one (workload, algorithm) run.
type Cell struct {
	Workload  string
	Algorithm allocator.Name
	Summary   metrics.Summary
	Makespan  float64
	Elapsed   time.Duration
}

// AWE returns the cell's efficiency for a kind, or 0 if the kind is absent.
func (c Cell) AWE(k resources.Kind) float64 {
	for _, ks := range c.Summary.PerKind {
		if ks.Kind == k.String() {
			return ks.AWE
		}
	}
	return 0
}

// Kind returns the cell's per-kind summary.
func (c Cell) Kind(k resources.Kind) metrics.KindSummary {
	for _, ks := range c.Summary.PerKind {
		if ks.Kind == k.String() {
			return ks
		}
	}
	return metrics.KindSummary{}
}

// RunGrid executes every (workload, algorithm) pair of the options and
// returns one cell per pair, in workload-major order. This is the engine
// behind Figures 5 and 6. It is RunGridContext without cancellation.
func RunGrid(opts Options) ([]Cell, error) {
	return RunGridContext(context.Background(), opts)
}

// RunGridContext executes the (workload x algorithm) grid across
// opts.Parallelism worker goroutines (after applying extra options) and
// returns one cell per pair, in workload-major order regardless of
// completion order.
//
// Determinism: each cell's allocator seed is opts.Seed XOR (grid position
// + 1) — the same derivation the sequential engine always used, now
// independent of completion order — and each cell constructs its own
// Policy, so the cells of a parallel run are byte-for-byte identical to a
// sequential run.
//
// Cancellation: when ctx is done, in-flight simulations abort at their
// next event-loop boundary, no further cells start, and the error wraps
// sim.ErrCanceled. The first cell failure likewise cancels the rest of the
// grid.
func RunGridContext(ctx context.Context, opts Options) ([]Cell, error) {
	opts = opts.withDefaults()

	// Workloads are generated up front and shared read-only by the cells
	// of a row; generation is cheap next to simulation, and failing on an
	// unknown workload (or unreadable trace) before any cell runs mirrors
	// the sequential engine.
	tracePaths := make(map[string]string, len(opts.Traces))
	for _, p := range opts.Traces {
		tracePaths[TraceWorkloadName(p)] = p
	}
	wfs := make([]*workflow.Workflow, len(opts.Workloads))
	for i, wfName := range opts.Workloads {
		var w *workflow.Workflow
		var err error
		if p, ok := tracePaths[wfName]; ok {
			w, err = loadTraceWorkflow(p)
		} else {
			w, err = workflow.ByName(wfName, opts.Tasks, opts.Seed)
		}
		if err != nil {
			return nil, err
		}
		wfs[i] = w
	}

	n := len(opts.Workloads) * len(opts.Algorithms)
	cells := make([]Cell, n)
	progress := newProgressFunnel(opts.Progress, n)
	err := RunIndexed(ctx, n, opts.Parallelism, func(ctx context.Context, i int) error {
		wfIdx, algIdx := i/len(opts.Algorithms), i%len(opts.Algorithms)
		c, err := runCell(ctx, opts, wfs[wfIdx], opts.Algorithms[algIdx], i)
		if err != nil {
			return err
		}
		cells[i] = c
		progress(c)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cells, nil
}

// runCell executes one grid cell. index is the cell's workload-major grid
// position; it determines the allocator seed.
func runCell(ctx context.Context, opts Options, w *workflow.Workflow, alg allocator.Name, index int) (Cell, error) {
	pol, err := allocator.New(alg, allocator.Config{Seed: opts.Seed ^ uint64(index+1)})
	if err != nil {
		return Cell{}, err
	}
	start := time.Now()
	var res *sim.Result
	if opts.Pool != nil {
		res, err = sim.RunContext(ctx, sim.Config{
			Workflow: w,
			Policy:   pol,
			Pool:     opts.Pool,
			PoolSeed: opts.Seed,
			Model:    opts.Model,
		})
	} else {
		res, err = sim.RunSequentialContext(ctx, w, pol, opts.Model, 0)
	}
	if err != nil {
		return Cell{}, fmt.Errorf("harness: %s/%s: %w", w.Name, alg, err)
	}
	return Cell{
		Workload:  w.Name,
		Algorithm: alg,
		Summary:   res.Summary(),
		Makespan:  res.Makespan,
		Elapsed:   time.Since(start),
	}, nil
}

// Fig5Tables renders the Figure 5 content: one table per resource kind with
// a row per workload and a column per algorithm, each cell the AWE
// percentage.
func Fig5Tables(cells []Cell, opts Options) []*report.Table {
	opts = opts.withDefaults()
	byKey := indexCells(cells)
	var tables []*report.Table
	for _, k := range resources.AllocatedKinds() {
		header := append([]string{"workflow"}, algorithmHeader(opts.Algorithms)...)
		tab := report.New(fmt.Sprintf("Figure 5 — Absolute Workflow Efficiency (%s)", k), header...)
		for _, wf := range opts.Workloads {
			row := []any{wf}
			for _, alg := range opts.Algorithms {
				if c, ok := byKey[cellKey{wf, alg}]; ok {
					row = append(row, report.Percent(c.AWE(k)))
				} else {
					row = append(row, "-")
				}
			}
			tab.AddRow(row...)
		}
		tables = append(tables, tab)
	}
	return tables
}

// Fig6Tables renders the Figure 6 content: per resource kind, the waste of
// every workflow under every predictive algorithm (Whole Machine omitted, as
// in the paper), split into internal fragmentation and failed allocation.
func Fig6Tables(cells []Cell, opts Options) []*report.Table {
	opts = opts.withDefaults()
	algs := make([]allocator.Name, 0, len(opts.Algorithms))
	for _, a := range opts.Algorithms {
		if a != allocator.WholeMachine {
			algs = append(algs, a)
		}
	}
	byKey := indexCells(cells)
	var tables []*report.Table
	for _, k := range resources.AllocatedKinds() {
		tab := report.New(
			fmt.Sprintf("Figure 6 — Resource Waste (%s): internal fragmentation + failed allocation", k),
			"workflow", "algorithm", "internal_frag", "failed_alloc", "total_waste", "failed_share")
		for _, wf := range opts.Workloads {
			for _, alg := range algs {
				c, ok := byKey[cellKey{wf, alg}]
				if !ok {
					continue
				}
				ks := c.Kind(k)
				total := ks.InternalFragmentation + ks.FailedAllocation
				share := 0.0
				if total > 0 {
					share = ks.FailedAllocation / total
				}
				tab.AddRow(wf, string(alg),
					fmt.Sprintf("%.3g", ks.InternalFragmentation),
					fmt.Sprintf("%.3g", ks.FailedAllocation),
					fmt.Sprintf("%.3g", total),
					report.Percent(share))
			}
		}
		tables = append(tables, tab)
	}
	return tables
}

func algorithmHeader(algs []allocator.Name) []string {
	out := make([]string, len(algs))
	for i, a := range algs {
		out[i] = string(a)
	}
	return out
}

// cellKey identifies a grid cell by its (workload, algorithm) pair.
type cellKey struct {
	wf  string
	alg allocator.Name
}

// indexCells builds a (workload, algorithm) index over cells, turning the
// per-table-cell lookup the figure renderers do from an O(cells) scan
// (O(n²) across a whole table) into a constant-time map hit.
func indexCells(cells []Cell) map[cellKey]Cell {
	byKey := make(map[cellKey]Cell, len(cells))
	for _, c := range cells {
		byKey[cellKey{c.Workload, c.Algorithm}] = c
	}
	return byKey
}
