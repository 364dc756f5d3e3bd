package harness

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"dynalloc/internal/allocator"
	"dynalloc/internal/metrics"
	"dynalloc/internal/report"
	"dynalloc/internal/resources"
	"dynalloc/internal/runlog"
	"dynalloc/internal/sim"
	"dynalloc/internal/workflow"
)

// WhatIfCell is the outcome of replaying one recorded trace under one
// allocator: the counterfactual "what if this exact run — same tasks, same
// arrival order, same worker churn — had been allocated differently?".
type WhatIfCell struct {
	Algorithm allocator.Name
	Summary   metrics.Summary
	Makespan  float64
	Elapsed   time.Duration
	// Recorded marks the allocator the trace was originally recorded under;
	// its replay reproduces the recorded run rather than a counterfactual.
	Recorded bool
	// Err is set when the replay failed under this allocator (for example a
	// pathological policy exceeding the attempt bound); the sweep carries on
	// with the rest instead of aborting.
	Err error
}

// WhatIfContext replays a recorded run under every allocator in algs (nil =
// all nine registered allocators), one cell per allocator in the given order,
// across up to parallelism goroutines,
// reusing the grid worker pool. Every allocator sees the identical recorded
// environment: the trace's task stream, submit window, barriers, and — for
// pool runs — the realized worker arrival/eviction schedule as a scripted
// pool. Each policy is seeded with the trace's recorded seed, so the cell
// for the recorded algorithm is the fidelity replay and the others are
// counterfactuals.
//
// A replay failing under one allocator records the error in that cell's Err
// and does not abort the sweep; only cancellation (sim.ErrCanceled) stops
// it.
func WhatIfContext(ctx context.Context, log *runlog.Log, algs []allocator.Name, parallelism int) ([]WhatIfCell, error) {
	if log == nil {
		return nil, fmt.Errorf("harness: a parsed run log is required")
	}
	if len(algs) == 0 {
		algs = allocator.ExtendedNames()
	}
	cells := make([]WhatIfCell, len(algs))
	err := RunIndexed(ctx, len(algs), parallelism, func(ctx context.Context, i int) error {
		alg := algs[i]
		cell := WhatIfCell{Algorithm: alg, Recorded: string(alg) == log.Header.Algorithm}
		pol, err := allocator.New(alg, allocator.Config{Seed: log.Header.Seed})
		if err != nil {
			return err
		}
		start := time.Now()
		res, err := runlog.Resimulate(ctx, log, pol)
		cell.Elapsed = time.Since(start)
		if err != nil {
			if errors.Is(err, sim.ErrCanceled) {
				return err
			}
			cell.Err = err
			cells[i] = cell
			return nil
		}
		cell.Summary = res.Summary()
		cell.Makespan = res.Makespan
		cells[i] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cells, nil
}

// AWE returns the cell's efficiency for a kind, or 0 if the kind is absent.
func (c WhatIfCell) AWE(k resources.Kind) float64 {
	for _, ks := range c.Summary.PerKind {
		if ks.Kind == k.String() {
			return ks.AWE
		}
	}
	return 0
}

// Waste returns the cell's total waste for a kind.
func (c WhatIfCell) Waste(k resources.Kind) float64 {
	for _, ks := range c.Summary.PerKind {
		if ks.Kind == k.String() {
			return ks.InternalFragmentation + ks.FailedAllocation
		}
	}
	return 0
}

// WhatIfTable renders the counterfactual ranking: one row per allocator,
// sorted by memory AWE (descending, failed replays last), with the recorded
// allocator's row marked. The makespan delta column compares each replay
// against the recorded footer's makespan when the trace carries one
// (format-2 logs); on older traces it is "-".
func WhatIfTable(log *runlog.Log, cells []WhatIfCell) *report.Table {
	ranked := append([]WhatIfCell(nil), cells...)
	sort.SliceStable(ranked, func(i, j int) bool {
		if (ranked[i].Err == nil) != (ranked[j].Err == nil) {
			return ranked[i].Err == nil
		}
		return ranked[i].AWE(resources.Memory) > ranked[j].AWE(resources.Memory)
	})
	recordedMakespan := 0.0
	if log.Footer != nil {
		recordedMakespan = log.Footer.MakespanS
	}
	tab := report.New(
		fmt.Sprintf("What-if — %s/%s trace (%d tasks) under each allocator",
			log.Header.Workload, log.Header.Algorithm, len(log.Outcomes)),
		"allocator", "awe_mem", "awe_cores", "waste_mem", "retries", "evictions", "failed",
		"makespan_s", "vs_recorded")
	for _, c := range ranked {
		name := string(c.Algorithm)
		if c.Recorded {
			name += " *"
		}
		if c.Err != nil {
			tab.AddRow(name, "-", "-", "-", "-", "-", "-", "-", fmt.Sprintf("error: %v", c.Err))
			continue
		}
		delta := "-"
		if recordedMakespan > 0 {
			delta = fmt.Sprintf("%+.1fs", c.Makespan-recordedMakespan)
		}
		tab.AddRow(name,
			report.Percent(c.AWE(resources.Memory)),
			report.Percent(c.AWE(resources.Cores)),
			fmt.Sprintf("%.3g", c.Waste(resources.Memory)),
			c.Summary.Retries,
			c.Summary.Evictions,
			c.Summary.Failures,
			fmt.Sprintf("%.1f", c.Makespan),
			delta)
	}
	return tab
}

// BestWhatIf returns the highest-ranked successful cell by memory AWE, or
// false when every replay failed.
func BestWhatIf(cells []WhatIfCell) (WhatIfCell, bool) {
	best, found := WhatIfCell{}, false
	for _, c := range cells {
		if c.Err != nil {
			continue
		}
		if !found || c.AWE(resources.Memory) > best.AWE(resources.Memory) {
			best, found = c, true
		}
	}
	return best, found
}

// TraceWorkloadName returns the grid row name a recorded trace file appears
// under when added to the experiment grid with Options.Traces: the file's
// base name under a "trace:" prefix, so a replayed trace never collides
// with the built-in workload names.
func TraceWorkloadName(path string) string { return "trace:" + filepath.Base(path) }

// loadTraceWorkflow materializes a recorded trace file into a Workflow
// carrying its grid row name: same task stream, submit window, and barriers
// as the recorded run, ready to be swept like any generated workload.
func loadTraceWorkflow(path string) (*workflow.Workflow, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("harness: trace: %w", err)
	}
	defer f.Close()
	log, err := runlog.Read(f)
	if err != nil {
		return nil, fmt.Errorf("harness: trace %s: %w", path, err)
	}
	src, err := runlog.TraceSource(log)
	if err != nil {
		return nil, fmt.Errorf("harness: trace %s: %w", path, err)
	}
	w := workflow.Materialize(src)
	w.Name = TraceWorkloadName(path)
	return w, nil
}
