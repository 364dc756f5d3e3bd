package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"

	"dynalloc/internal/allocator"
	"dynalloc/internal/harness"
	"dynalloc/internal/report"
	"dynalloc/internal/resources"
	"dynalloc/internal/runlog"
)

// analyze recomputes the paper's metrics from saved run logs (written by
// run -log or a live wq-manager -log run) without re-running anything, and
// compares several logs side by side. Live-engine logs carry lifecycle
// event lines (dispatches, evictions, heartbeat timeouts, drain); those
// replay identically, with the event count reported alongside the metrics.
// Logs are read and replayed across -j workers; output rows follow the
// argument order.
func analyze(c *cli) {
	perCategory := c.fs.Bool("by-category", false, "break metrics down per task category")
	jobs := c.jobs()
	c.parse()
	paths := c.fs.Args()
	if len(paths) == 0 {
		usagef("name at least one run log")
	}

	logs := make([]*runlog.Log, len(paths))
	rows := make([][][]any, len(paths))
	fatalIf(harness.RunIndexed(c.ctx, len(paths), *jobs, func(_ context.Context, i int) error {
		log, err := readLog(paths[i])
		if err != nil {
			return err
		}
		logs[i], rows[i] = log, replayRows(paths[i], log, *perCategory)
		return nil
	}))

	tab := report.New("Run log analysis",
		"log", "workload", "algorithm", "tasks", "retries", "evictions", "failed", "events",
		"cores AWE", "memory AWE", "disk AWE")
	for i, log := range logs {
		warnUnknownKinds(c, paths[i], log)
		for _, row := range rows[i] {
			tab.AddRow(row...)
		}
	}
	fatalIf(tab.Render(c.stdout))
}

// replayRows replays one run log and returns its table rows: the aggregate
// row first, then one row per category when perCategory is set.
func replayRows(path string, log *runlog.Log, perCategory bool) [][]any {
	acc := runlog.Replay(log)
	rows := [][]any{{path, log.Header.Workload, log.Header.Algorithm,
		acc.Tasks(), acc.Retries(), acc.Evictions(), acc.Failures(), len(log.Events),
		report.Percent(acc.AWE(resources.Cores)),
		report.Percent(acc.AWE(resources.Memory)),
		report.Percent(acc.AWE(resources.Disk))}}
	if !perCategory {
		return rows
	}
	byCat := runlog.ReplayByCategory(log)
	cats := make([]string, 0, len(byCat))
	for cat := range byCat {
		cats = append(cats, cat)
	}
	sort.Strings(cats)
	for _, cat := range cats {
		acc := byCat[cat]
		rows = append(rows, []any{"  - " + cat, "", "",
			acc.Tasks(), acc.Retries(), acc.Evictions(), acc.Failures(), "",
			report.Percent(acc.AWE(resources.Cores)),
			report.Percent(acc.AWE(resources.Memory)),
			report.Percent(acc.AWE(resources.Disk))})
	}
	return rows
}

// whatif replays one recorded run log under every registered allocator (or
// the -algorithm subset) and ranks the outcomes: the counterfactual "what
// if this exact run — same task stream, same submission order, same worker
// churn — had been allocated differently?". The recorded allocator's row
// (marked *) is a fidelity replay that reproduces the recorded summary.
//
// With -fidelity it first replays under the recorded allocator and fails
// unless the replayed summary is bit-identical to the recorded footer: the
// round-trip check the replay subsystem is pinned by.
func whatif(c *cli) {
	algorithms := c.algorithm("")
	jobs := c.jobs()
	fidelity := c.fs.Bool("fidelity", false, "verify the recorded allocator's replay reproduces the recorded footer bit-identically")
	asCSV := c.csv()
	c.parse()
	if c.fs.NArg() != 1 {
		usagef("name one run log")
	}
	path := c.fs.Arg(0)

	log, err := readLog(path)
	fatalIf(err)
	warnUnknownKinds(c, path, log)
	var algs []allocator.Name // every registered allocator
	if *algorithms != "" {
		algs = parseAlgorithms(*algorithms)
	}

	if *fidelity {
		checkFidelity(c.ctx, log)
		fmt.Fprintf(c.stdout, "fidelity: replay under %s reproduces the recorded summary bit-identically\n",
			log.Header.Algorithm)
	}

	cells, err := harness.WhatIfContext(c.ctx, log, algs, *jobs)
	fatalIf(err)
	tab := harness.WhatIfTable(log, cells)
	write := tab.Render
	if *asCSV {
		write = tab.RenderCSV
	}
	fatalIf(write(c.stdout))
	if best, ok := harness.BestWhatIf(cells); ok && !best.Recorded {
		fmt.Fprintf(c.stdout, "counterfactual winner: %s (recorded run used %s)\n",
			best.Algorithm, log.Header.Algorithm)
	}
}

// checkFidelity replays the log under its recorded allocator and compares
// the replayed summary against the recorded footer field by field. JSON
// round-trips float64 exactly and the engines are deterministic given the
// recorded environment, so anything short of bit-identical is a replay bug
// (or a hand-edited log).
func checkFidelity(ctx context.Context, log *runlog.Log) {
	if log.Footer == nil {
		fatalIf(fmt.Errorf("log has no footer to verify against (truncated run?)"))
	}
	res, err := runlog.ResimulateAs(ctx, log, log.Header.Algorithm)
	if err != nil {
		fatalIf(fmt.Errorf("fidelity replay: %w", err))
	}
	if got, want := res.Summary(), log.Footer.Summary; !reflect.DeepEqual(got, want) {
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		fatalIf(fmt.Errorf("replay diverged from the recorded summary\n  recorded: %s\n  replayed: %s", wj, gj))
	}
}

func readLog(path string) (*runlog.Log, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	log, err := runlog.Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return log, nil
}

func warnUnknownKinds(c *cli, path string, log *runlog.Log) {
	if log.UnknownKinds > 0 {
		fmt.Fprintf(c.stderr, "dynalloc %s: %s: skipped %d record(s) of unknown kind (log format %d, this build reads %d)\n",
			c.fs.Name(), path, log.UnknownKinds, log.Header.Format, runlog.FormatVersion)
	}
}
