// Command bench is the repository's benchmark: one process that drives the
// live engine (internal/wq), the allocator daemon (internal/serve) and the
// simulator (internal/sim) through their public functions — over loopback
// TCP where the system has a socket, with a real allocator whose records
// grow — and reports what a workflow sees end to end plus a per-layer
// budget from a separately traced run. README.md has the metric tables and
// the reasoning; BENCHMARK.json at the repository root is the contract.
//
//	bench [-workload name] [-trace 0|1] [-seed N] [-seconds S] [-json out.json] [-history file]
//	    every workload (or one), untraced then traced (or one of the two);
//	    each run prints its metrics by name and then one result object, so
//	    the last stdout line of a single run is that run's result
//	bench -compare A.json B.json
//	    verdict per workload × end-to-end metric against the fixed bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	var (
		seed    = flag.Uint64("seed", 1, "workload seed: the same seed generates the same inputs")
		seconds = flag.Float64("seconds", 25, "how long one run of one workload repeats rounds")
		name    = flag.String("workload", "", "run just this workload (default: all)")
		trace   = flag.Int("trace", -1, "0 = only the untraced run (end-to-end metrics), 1 = only the traced run (per-layer metrics), default both")
		jsonOut = flag.String("json", "", "also write the report to this file, for -compare")
		history = flag.String("history", "", "also append the report as one line to this file (bench/HISTORY.jsonl is the kept history)")
		outDir  = flag.String("out", "bench/out", "directory for trace-<workload>.jsonl files")
		compare = flag.Bool("compare", false, "compare two report files given as arguments: baseline, then candidate")
	)
	flag.Parse()

	// One P unless the environment says otherwise. The machines this runs on
	// are a couple of vCPUs of a shared host: with two Ps every goroutine
	// hand-off is a cross-thread wake-up whose cost follows the neighbours'
	// load (quartile spread 18-24 % beside one intermittent busy process,
	// against 5 % with one P), and the second P mostly spins. With one P the
	// benchmark measures the work a task costs, not how the hypervisor
	// schedules two threads; README.md has the measurements.
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(1)
	}

	var err error
	if *compare {
		err = compareMode(flag.Args())
	} else {
		err = run(*name, *trace, *seed, *seconds, *jsonOut, *history, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// run makes the selected runs — untraced for the end-to-end metrics, traced
// for the per-layer metrics — and after each prints every metric by name with
// its unit, then the run's result object on a line of its own. It fails if
// any output check failed.
func run(name string, trace int, seed uint64, seconds float64, jsonOut, history, outDir string) error {
	selected := workloads
	if name != "" {
		w, err := findWorkload(name)
		if err != nil {
			return err
		}
		selected = []workload{w}
	}
	modes := []bool{false, true}
	switch trace {
	case 0:
		modes = []bool{false}
	case 1:
		modes = []bool{true}
	}

	rep := report{Provenance: collectProvenance(seed, seconds)}
	fmt.Printf("bench: commit %s go %s gomaxprocs %d nproc %d cpu %q seed %d seconds %g\n",
		rep.Provenance.Commit, rep.Provenance.Go, rep.Provenance.GOMAXPROCS, rep.Provenance.NumCPU,
		rep.Provenance.CPU, seed, seconds)
	failed := 0
	for _, w := range selected {
		wr := workloadReport{Name: w.name, Deterministic: w.deterministic, Params: w.p}
		for _, traced := range modes {
			r, err := runWorkload(w, w.p, seed, seconds, traced)
			if err != nil {
				return err
			}
			failed += r.Failed
			if traced {
				if err := r.sink.writeJSONL(outDir, w.name); err != nil {
					return err
				}
				wr.Traced = r
			} else {
				wr.Untraced = r
			}
			printRun(w, r)
			if err := printResult(r); err != nil {
				return err
			}
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	if jsonOut != "" {
		if err := writeReport(jsonOut, &rep); err != nil {
			return err
		}
	}
	if history != "" {
		if err := appendHistory(history, &rep); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d output checks failed", failed)
	}
	return nil
}

// printResult prints one run as the object BENCHMARK.json's contract reads:
// the keys correct, attempted, failed and metrics, the latter holding every
// end-to-end metric of an untraced run or every per-layer metric of a traced
// one. A per-layer metric of a layer the workload's system does not have
// (serve.* on a wq workload) reads 0 here and is left out everywhere else.
func printResult(r *runReport) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	if r.Traced {
		for _, d := range perLayer {
			out.Metrics[d.name] = value{r.Metrics[d.name].Value, d.unit}
		}
	} else {
		for _, d := range endToEnd {
			out.Metrics[d.name] = value{r.Metrics[d.name].Value, d.unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printRun prints one run's metrics by name with units, in declaration
// order (the per-layer table is declared layer by layer).
func printRun(w workload, r *runReport) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Printf("\n== %s  %s  rounds=%d tasks/round=%d attempted=%d failed=%d correct=%v\n",
		w.name, mode, r.Rounds, r.TasksPerRound, r.Attempted, r.Failed, r.Correct)
	for _, v := range r.Violations {
		fmt.Printf("   VIOLATION: %s\n", v)
	}
	if !r.Traced {
		for _, d := range endToEnd {
			v := r.Metrics[d.name]
			fmt.Printf("   %-28s %14.6g %-6s spread %5.1f%%  n=%d\n", d.name, v.Value, v.Unit, v.Spread*100, v.N)
		}
		if r.LatencyTailPercentile > 0 {
			fmt.Printf("   %-28s %14.6g %-6s (p%g: highest percentile with >=10 of the round's %d samples beyond it)\n",
				"task_latency_tail_ms", r.LatencyTailMS, "ms", r.LatencyTailPercentile, r.LatencySamples)
		}
		return
	}
	for _, d := range perLayer {
		if v, ok := r.Metrics[d.name]; ok {
			fmt.Printf("   %-32s %14.6g %-6s n=%d\n", d.name, v.Value, v.Unit, v.N)
		}
	}
}
