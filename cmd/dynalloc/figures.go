package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"dynalloc/internal/allocator"
	"dynalloc/internal/harness"
	"dynalloc/internal/plot"
	"dynalloc/internal/report"
	"dynalloc/internal/resources"
	"dynalloc/internal/sim"
	"dynalloc/internal/trace"
)

// figures regenerates the tables and figures of the paper's evaluation:
//
//	-fig 2     ColmenaXTB/TopEFT consumption series (CSV)
//	-fig 3     Greedy/Exhaustive bucketing worked example
//	-fig 4     synthetic workflow memory series (CSV)
//	-fig 5     AWE grid, 7 workflows x 7 algorithms
//	-fig 6     waste decomposition grid
//	-table 1   bucketing-state computation cost
//	-all       everything (CSV series written to -outdir)
//
// Figure 5/6 runs use the fast sequential driver by default; -des runs the
// full discrete-event simulation on the paper's 20-to-50-worker
// opportunistic pool.
func figures(c *cli) {
	var (
		fig      = c.fs.Int("fig", 0, "figure to regenerate (2-6)")
		table    = c.fs.Int("table", 0, "table to regenerate (1)")
		all      = c.fs.Bool("all", false, "regenerate everything")
		seed     = c.seed()
		tasks    = c.tasks()
		useDES   = c.des()
		model    = c.model()
		extended = c.fs.Bool("extended", false, "include the extension algorithms (k-means, percentile) in figures 5/6")
		asPlot   = c.fs.Bool("plot", false, "render terminal graphics (bar charts for figure 5, scatter strips for figures 2/4) instead of tables/CSV only")
		outdir   = c.fs.String("outdir", "figures-out", "directory for CSV series (figures 2 and 4)")
		reps     = c.fs.Int("reps", 10, "measurement repetitions for table 1")
		seeds    = c.fs.Int("seeds", 1, "replicate figures 5/6 across this many seeds and report mean ± sd")
		jobs     = c.jobs()
		progress = c.fs.Bool("progress", false, "report each completed grid cell on stderr")
	)
	c.profiles()
	c.parse()

	cm, err := sim.ParseConsumptionModel(*model)
	fatalIf(err)
	opts := harness.Options{Seed: *seed, Tasks: *tasks, UseDES: *useDES, Model: cm, Parallelism: *jobs}
	if *extended {
		opts.Algorithms = allocator.ExtendedNames()
	}
	if *progress {
		opts.Progress = func(p harness.Progress) {
			fmt.Fprintf(c.stderr, "[%d/%d] %s/%s done in %s\n",
				p.Done, p.Total, p.Cell.Workload, p.Cell.Algorithm, p.Cell.Elapsed.Round(time.Millisecond))
		}
	}

	out := c.stdout
	ran := false
	step := func(n int, sel *int, f func()) {
		if *all || *sel == n {
			f()
			ran = true
		}
	}
	step(2, fig, func() { writeSeries(out, *outdir, "fig2", harness.Fig2Series(*seed), *asPlot) })
	step(3, fig, func() { render(out, harness.Fig3Example(*seed, 2000)) })
	step(4, fig, func() {
		series, err := harness.Fig4Series(*seed, *tasks)
		fatalIf(err)
		writeSeries(out, *outdir, "fig4", series, *asPlot)
	})
	step(5, fig, func() {
		if *seeds > 1 {
			cells, err := harness.RunGridReplicatedContext(c.ctx, opts, *seeds)
			fatalIf(err)
			for _, k := range resources.AllocatedKinds() {
				render(out, harness.ReplicatedTable(cells, opts, k, *seeds))
			}
			return
		}
		cells := grid(c.ctx, out, opts, harness.Fig5Tables)
		if *asPlot {
			plotFig5(out, cells)
		}
	})
	step(6, fig, func() { grid(c.ctx, out, opts, harness.Fig6Tables) })
	step(1, table, func() {
		rows, err := harness.Table1Context(c.ctx, *seed, *reps)
		fatalIf(err)
		render(out, harness.Table1Report(rows))
	})
	if !ran {
		usagef("pick a figure with -fig, a table with -table, or -all")
	}
}

// render writes a table or a chart followed by a blank line.
func render(out io.Writer, r interface{ Render(io.Writer) error }) {
	fatalIf(r.Render(out))
	fmt.Fprintln(out)
}

// writeSeries writes each series to outdir as a CSV file and, with asPlot,
// renders the memory column of each as a scatter strip.
func writeSeries(out io.Writer, outdir, prefix string, series map[string][]trace.TaskPoint, asPlot bool) {
	fatalIf(os.MkdirAll(outdir, 0o755))
	names := make([]string, 0, len(series))
	for name := range series {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		path := filepath.Join(outdir, fmt.Sprintf("%s_%s.csv", prefix, name))
		f, err := os.Create(path)
		fatalIf(err)
		err = harness.WriteSeriesCSV(f, series[name])
		fatalIf(errors.Join(err, f.Close()))
		fmt.Fprintf(out, "wrote %s (%d tasks)\n", path, len(series[name]))
	}
	if !asPlot {
		return
	}
	for _, name := range names {
		values := make([]float64, len(series[name]))
		for i, p := range series[name] {
			values[i] = p.MemoryMB
		}
		render(out, plot.Strip{
			Title:  fmt.Sprintf("%s — memory consumption (MB) by task order", name),
			Values: values,
		})
	}
}

// grid runs the Figure 5/6 grid and renders the figure's tables.
func grid(ctx context.Context, out io.Writer, opts harness.Options, tables func([]harness.Cell, harness.Options) []*report.Table) []harness.Cell {
	cells, err := harness.RunGridContext(ctx, opts)
	fatalIf(err)
	for _, tab := range tables(cells, opts) {
		render(out, tab)
	}
	return cells
}

// plotFig5 renders one bar chart per (resource kind, workload) cell group.
func plotFig5(out io.Writer, cells []harness.Cell) {
	var workloads []string
	seen := map[string]bool{}
	for _, c := range cells {
		if !seen[c.Workload] {
			seen[c.Workload] = true
			workloads = append(workloads, c.Workload)
		}
	}
	for _, k := range resources.AllocatedKinds() {
		for _, wf := range workloads {
			chart := plot.BarChart{
				Title: fmt.Sprintf("%s AWE — %s", k, wf),
				Max:   100,
				Unit:  "%",
			}
			for _, c := range cells {
				if c.Workload != wf {
					continue
				}
				chart.Bars = append(chart.Bars, plot.Bar{
					Label: string(c.Algorithm),
					Value: 100 * c.AWE(k),
				})
			}
			render(out, chart)
		}
	}
}

// ablate runs the design-choice ablation suite: consumption profile,
// exploration threshold, bucket cap, category isolation, significance
// weighting, and placement robustness. The measured tables back the
// Ablations section of EXPERIMENTS.md.
func ablate(c *cli) {
	var (
		seed  = c.seed()
		tasks = c.tasks()
		only  = c.fs.String("only", "", "run one ablation: model, exploration, buckets, category, significance, placement")
		jobs  = c.jobs()
	)
	c.parse()

	suite := harness.AblationSuite(*seed, *tasks)
	if *only != "" {
		var picked []harness.Ablation
		var names []string
		for _, a := range suite {
			if a.Name == *only {
				picked = append(picked, a)
			}
			names = append(names, a.Name)
		}
		if len(picked) == 0 {
			usagef("unknown ablation %q (have: %s)", *only, strings.Join(names, ", "))
		}
		suite = picked
	}
	tables, err := harness.RunAblations(c.ctx, suite, *jobs)
	fatalIf(err)
	for _, tab := range tables {
		render(c.stdout, tab)
	}
}
