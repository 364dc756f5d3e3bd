package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"dynalloc/internal/allocator"
	"dynalloc/internal/condor"
	"dynalloc/internal/harness"
	"dynalloc/internal/metrics"
	"dynalloc/internal/opportunistic"
	"dynalloc/internal/report"
	"dynalloc/internal/resources"
	"dynalloc/internal/runlog"
	"dynalloc/internal/sim"
	"dynalloc/internal/trace"
	"dynalloc/internal/vine"
	"dynalloc/internal/workflow"
)

// simulate is the run subcommand. It runs one workload under each algorithm
// of the -algorithm list and reports the paper's metrics: per-resource
// Absolute Workflow Efficiency, waste decomposition, and attempt/retry
// counts. Every row is the run that -algorithm with that one name gives,
// its allocator seeded with -seed as the run log records, so one algorithm
// is a one-row comparison; with several, the rows fan out across -j workers
// and render side by side.
func simulate(c *cli) {
	var (
		wfName   = c.workflow()
		wfFile   = c.fs.String("workflow-file", "", "load the workload from a JSON trace instead of generating it")
		algName  = c.algorithm(string(allocator.Exhaustive))
		tasks    = c.tasks()
		seed     = c.seed()
		model    = c.model()
		useDES   = c.des()
		poolSpec = c.fs.String("pool", "paper", "pool for -des: paper, static:N, backfill:MIN:MAX:INTERVAL, churn:N:LIFE:INTERVAL:HORIZON, condor:SLOTS:LOAD:PILOTS")
		jsonOut  = c.fs.Bool("json", false, "emit the summary as JSON")
		oracle   = c.fs.Bool("oracle", false, "use the oracle policy instead of -algorithm")
		logPath  = c.fs.String("log", "", "write a replayable run log (JSON lines) to this file")
		place    = c.fs.String("placement", sim.FirstFit.String(), "worker placement for -des: first-fit, worst-fit, best-fit, locality")
		withData = c.fs.Bool("data", false, "enable the TaskVine-style data layer (file staging and caches) for -des")
		stream   = c.fs.Bool("stream", false, "generate tasks lazily and fold outcomes as they finish (constant memory; -des only)")
		window   = c.fs.Int("window", 0, "with -stream, cap tasks in flight beyond the completed count (0 = workload default)")
		jobs     = c.jobs()
	)
	c.profiles()
	c.parse()

	if strings.Contains(*algName, ",") {
		// A run log, a JSON summary and the oracle each describe one run.
		c.fs.Visit(func(f *flag.Flag) {
			if f.Name == "log" || f.Name == "json" || f.Name == "oracle" {
				usagef("-%s takes one algorithm, not a list", f.Name)
			}
		})
	}
	// The pool, placement, data layer and streaming are the event-driven
	// run's, and the window is the stream's: a run without them would ignore
	// the flag.
	c.fs.Visit(func(f *flag.Flag) {
		switch {
		case !*useDES && (f.Name == "pool" || f.Name == "placement" || f.Name == "data" || f.Name == "stream"):
			usagef("-%s requires -des", f.Name)
		case !*stream && f.Name == "window":
			usagef("-window requires -stream")
		}
	})
	// Streaming keeps only the in-flight window of tasks alive, so every
	// feature that needs the full task list up front is rejected rather than
	// silently materializing a million-task slice.
	if *stream && (*wfFile != "" || *oracle || *withData) {
		usagef("-stream generates tasks lazily; -workflow-file, -oracle and -data need the materialized task list")
	}

	cm, err := sim.ParseConsumptionModel(*model)
	fatalIf(err)
	base := sim.Config{PoolSeed: *seed, Model: cm}
	if *useDES {
		base.Pool = parsePool(*poolSpec)
		base.Place, err = sim.ParsePlacement(*place)
		fatalIf(err)
		base.DiscardOutcomes = *stream
	}
	algs := []allocator.Name{""} // the oracle
	if !*oracle {
		algs = parseAlgorithms(*algName)
	}
	rows := make([]simRow, len(algs))
	for i, alg := range algs {
		r := &rows[i]
		r.cfg = base
		if *stream {
			src, err := workflow.SourceByName(*wfName, *tasks, *seed)
			fatalIf(err)
			if *window > 0 {
				src = workflow.WithSubmitWindow(src, *window)
			}
			r.cfg.Source, r.label = src, src.Name()
		} else {
			w := loadWorkflow(*wfFile, *wfName, *tasks, *seed)
			r.cfg.Workflow, r.label = w, w.Name
		}
		if alg == "" {
			r.cfg.Policy = sim.NewOracle(r.cfg.Workflow)
		} else {
			r.cfg.Policy, err = allocator.New(alg, allocator.Config{Seed: *seed})
			fatalIf(err)
		}
		if *useDES && *withData {
			r.cfg.Data = vine.NewLayer()
			vine.Attach(r.cfg.Data, r.cfg.Workflow, *seed)
		}
	}

	// The run log opens before the run so streaming runs can append task
	// lines as outcomes finalize (Writer.Task wired into OnOutcome) instead
	// of needing the materialized outcome slice afterwards.
	var (
		logFile *os.File
		logW    *runlog.Writer
		logErr  error
	)
	if *logPath != "" {
		r := &rows[0]
		driver := runlog.DriverSequential
		if *useDES {
			driver = runlog.DriverDES
		}
		window, barriers := workloadShape(r.cfg.Workflow, r.cfg.Source)
		hdr := runlog.SimHeader(driver, r.label, r.cfg.Policy.Name(), *seed, r.cfg, window, barriers)
		if r.cfg.Workflow != nil {
			hdr.Tasks = len(r.cfg.Workflow.Tasks)
		}
		logFile, err = os.Create(*logPath)
		fatalIf(err)
		defer logFile.Close()
		logW, err = runlog.NewWriter(logFile, hdr)
		fatalIf(err)
		if *stream {
			// OnOutcome runs on the engine goroutine and the outcome is
			// recycled after the callback, so encode synchronously here.
			r.cfg.OnOutcome = func(o *metrics.TaskOutcome) {
				if err := logW.Task(o); err != nil && logErr == nil {
					logErr = err
				}
			}
		}
	}

	fatalIf(harness.RunIndexed(c.ctx, len(rows), *jobs, func(ctx context.Context, i int) (err error) {
		r, start := &rows[i], time.Now()
		if *useDES {
			r.res, err = sim.RunContext(ctx, r.cfg)
		} else {
			r.res, err = sim.RunSequentialContext(ctx, r.cfg.Workflow, r.cfg.Policy, r.cfg.Model, 0)
		}
		r.elapsed = time.Since(start)
		return err
	}))
	if logW != nil {
		fatalIf(logErr)
		fatalIf(logW.Finish(rows[0].res))
		fatalIf(logFile.Close())
		fmt.Fprintf(c.stderr, "wrote run log %s\n", *logPath)
	}

	if len(rows) > 1 {
		tab := report.New(fmt.Sprintf("%s — algorithm comparison", rows[0].label),
			"algorithm", "cores AWE", "memory AWE", "disk AWE", "retries", "elapsed")
		for _, r := range rows {
			tab.AddRow(r.cfg.Policy.Name(),
				report.Percent(r.res.Acc.AWE(resources.Cores)),
				report.Percent(r.res.Acc.AWE(resources.Memory)),
				report.Percent(r.res.Acc.AWE(resources.Disk)),
				r.res.Acc.Retries(),
				r.elapsed.Round(time.Millisecond).String())
		}
		fatalIf(tab.Render(c.stdout))
		return
	}
	r, s := rows[0], rows[0].res.Summary()
	if *jsonOut {
		enc := json.NewEncoder(c.stdout)
		enc.SetIndent("", "  ")
		fatalIf(enc.Encode(s))
		return
	}
	fmt.Fprintf(c.stdout, "workload=%s algorithm=%s tasks=%d attempts=%d retries=%d evictions=%d\n",
		r.label, r.cfg.Policy.Name(), s.Tasks, s.Attempts, s.Retries, s.Evictions)
	if *useDES {
		fmt.Fprintf(c.stdout, "makespan=%.1fs peak-workers=%d", r.res.Makespan, r.res.PeakWorkers)
		if *stream {
			fmt.Fprintf(c.stdout, " peak-window=%d", r.res.PeakWindow)
		}
		fmt.Fprintln(c.stdout)
	}
	tab := report.New("", "resource", "AWE", "consumption", "allocation", "internal_frag", "failed_alloc")
	for _, ks := range s.PerKind {
		tab.AddRow(ks.Kind, report.Percent(ks.AWE),
			fmt.Sprintf("%.4g", ks.Consumption), fmt.Sprintf("%.4g", ks.Allocation),
			fmt.Sprintf("%.4g", ks.InternalFragmentation), fmt.Sprintf("%.4g", ks.FailedAllocation))
	}
	fatalIf(tab.Render(c.stdout))
}

// simRow is one algorithm's run of the workload: its configuration, then
// its result and wall time.
type simRow struct {
	label   string
	cfg     sim.Config
	res     *sim.Result
	elapsed time.Duration
}

// workloadShape extracts the submit window and phase barriers of whichever
// workload form the run uses (materialized slice or lazy source), for the
// run-log header. Enumerating a source's barriers is stateless (NextBarrier
// does not consume tasks), so the source stays fresh for the run.
func workloadShape(w *workflow.Workflow, src workflow.Source) (int, []int) {
	if w != nil {
		return w.SubmitWindow, w.Barriers
	}
	var barriers []int
	for b := src.NextBarrier(0); b > 0; b = src.NextBarrier(b) {
		barriers = append(barriers, b)
	}
	return src.SubmitWindow(), barriers
}

func loadWorkflow(file, name string, tasks int, seed uint64) *workflow.Workflow {
	if file == "" {
		w, err := workflow.ByName(name, tasks, seed)
		fatalIf(err)
		return w
	}
	f, err := os.Open(file)
	fatalIf(err)
	defer f.Close()
	w, err := trace.ReadWorkflow(f)
	fatalIf(err)
	fatalIf(w.Validate(resources.PaperWorker()))
	return w
}

func parsePool(spec string) opportunistic.Model {
	parts := strings.Split(spec, ":")
	nums := func(want int) []float64 {
		if len(parts) != want+1 {
			fatalIf(fmt.Errorf("pool spec %q needs %d parameters", spec, want))
		}
		out := make([]float64, want)
		for i := range out {
			v, err := strconv.ParseFloat(parts[i+1], 64)
			if err != nil {
				fatalIf(fmt.Errorf("pool spec %q: %w", spec, err))
			}
			out[i] = v
		}
		return out
	}
	switch parts[0] {
	case "paper":
		return opportunistic.PaperPool()
	case "static":
		return opportunistic.Static{N: int(nums(1)[0])}
	case "backfill":
		v := nums(3)
		return opportunistic.Backfill{Min: int(v[0]), Max: int(v[1]), Interval: v[2]}
	case "churn":
		v := nums(4)
		return opportunistic.Churn{
			Initial: int(v[0]), MeanLifetime: v[1], MeanInterval: v[2], Horizon: v[3],
			KeepLastAlive: true,
		}
	case "condor":
		v := nums(3)
		c := condor.DefaultCluster()
		c.Slots = int(v[0])
		c.PrimaryLoad = v[1]
		c.PilotTarget = int(v[2])
		return c
	}
	fatalIf(fmt.Errorf("unknown pool model %q", parts[0]))
	return nil
}
