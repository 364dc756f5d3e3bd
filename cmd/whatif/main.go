// Command whatif replays one recorded run log under every registered
// allocator and ranks the outcomes: the counterfactual "what if this exact
// run — same task stream, same submission order, same worker churn — had
// been allocated differently?". The recorded allocator's row (marked *) is
// a fidelity replay that reproduces the recorded summary; every other row
// answers the counterfactual against the identical environment.
//
//	vinesim -workflow topeft -algorithm greedy-bucketing -des -log run.jsonl
//	whatif run.jsonl
//	whatif -algorithm greedy-bucketing,max-seen -j 2 run.jsonl
//
// With -fidelity the tool additionally replays under the recorded allocator
// and verifies the replayed summary is bit-identical to the recorded
// footer, exiting non-zero on any mismatch — the round-trip check the
// replay subsystem is pinned by.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"

	"dynalloc/internal/allocator"
	"dynalloc/internal/harness"
	"dynalloc/internal/runlog"
)

func main() {
	algorithms := flag.String("algorithm", "", "comma-separated allocator subset (default: all nine)")
	jobs := flag.Int("j", 0, "replays to run concurrently (0 = GOMAXPROCS)")
	fidelity := flag.Bool("fidelity", false, "verify the recorded allocator's replay reproduces the recorded footer bit-identically")
	csv := flag.Bool("csv", false, "emit the ranking as CSV instead of a table")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: whatif [-algorithm a,b,...] [-j N] [-fidelity] [-csv] <runlog.jsonl>")
		os.Exit(2)
	}
	path := flag.Arg(0)

	f, err := os.Open(path)
	fatalIf(err)
	log, err := runlog.Read(f)
	f.Close()
	fatalIf(err)
	if log.UnknownKinds > 0 {
		fmt.Fprintf(os.Stderr, "whatif: %s: skipped %d record(s) of unknown kind (log format %d, this build reads %d)\n",
			path, log.UnknownKinds, log.Header.Format, runlog.FormatVersion)
	}

	algs, err := parseAlgorithms(*algorithms)
	fatalIf(err)

	if *fidelity {
		fatalIf(checkFidelity(log))
		fmt.Printf("fidelity: replay under %s reproduces the recorded summary bit-identically\n",
			log.Header.Algorithm)
	}

	cells, err := harness.WhatIfContext(context.Background(), log, algs, *jobs)
	fatalIf(err)
	tab := harness.WhatIfTable(log, cells)
	if *csv {
		fatalIf(tab.RenderCSV(os.Stdout))
	} else {
		fatalIf(tab.Render(os.Stdout))
	}
	if best, ok := harness.BestWhatIf(cells); ok && !best.Recorded {
		fmt.Printf("counterfactual winner: %s (recorded run used %s)\n",
			best.Algorithm, log.Header.Algorithm)
	}
}

// parseAlgorithms resolves a comma-separated allocator list; empty means
// every registered allocator.
func parseAlgorithms(s string) ([]allocator.Name, error) {
	if s == "" {
		return nil, nil
	}
	var out []allocator.Name
	for _, part := range strings.Split(s, ",") {
		name, err := allocator.ParseName(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, name)
	}
	return out, nil
}

// checkFidelity replays the log under its recorded allocator and compares
// the replayed summary against the recorded footer field by field. JSON
// round-trips float64 exactly and the engines are deterministic given the
// recorded environment, so anything short of bit-identical is a replay bug
// (or a hand-edited log).
func checkFidelity(log *runlog.Log) error {
	if log.Footer == nil {
		return fmt.Errorf("whatif: log has no footer to verify against (truncated run?)")
	}
	res, err := runlog.ResimulateAs(context.Background(), log, log.Header.Algorithm)
	if err != nil {
		return fmt.Errorf("whatif: fidelity replay: %w", err)
	}
	got := res.Summary()
	want := log.Footer.Summary
	if !reflect.DeepEqual(got, want) {
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		return fmt.Errorf("whatif: replay diverged from the recorded summary\n  recorded: %s\n  replayed: %s", wj, gj)
	}
	return nil
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "whatif:", err)
		os.Exit(1)
	}
}
