// Command wq-manager runs the live Work Queue-style manager: it listens for
// workers, executes a workload with the chosen allocation algorithm, and
// prints the same efficiency report as dynalloc run plus the engine's lifecycle
// counters (dispatches, evictions, retries, failures, per-worker
// utilization).
//
// Start a manager, then one or more wq-worker processes:
//
//	wq-manager -addr 127.0.0.1:9123 -workflow bimodal -tasks 200 -log live.jsonl &
//	wq-worker  -addr 127.0.0.1:9123 &
//	wq-worker  -addr 127.0.0.1:9123 &
//
// With -log the run is traced into a run log (header, lifecycle event
// lines, task outcomes, footer) that dynalloc analyze replays exactly like a
// simulator log. SIGINT or SIGTERM ends the run early: the manager drains
// and shuts its workers down before exiting non-zero.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dynalloc/internal/allocator"
	"dynalloc/internal/report"
	"dynalloc/internal/runlog"
	"dynalloc/internal/workflow"
	"dynalloc/internal/wq"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:9123", "listen address")
		wfName     = flag.String("workflow", "normal", "workload: "+strings.Join(workflow.Names(), ", "))
		algName    = flag.String("algorithm", string(allocator.Exhaustive), "allocation algorithm")
		tasks      = flag.Int("tasks", 200, "synthetic task count")
		seed       = flag.Uint64("seed", 42, "random seed")
		timeout    = flag.Duration("timeout", 10*time.Minute, "overall run deadline")
		minW       = flag.Int("min-workers", 1, "wait for this many workers before submitting")
		logPath    = flag.String("log", "", "write a replayable run log (with lifecycle events) to this file")
		hbInterval = flag.Duration("heartbeat", 2*time.Second, "worker ping interval (0 disables liveness sweeping)")
		hbTimeout  = flag.Duration("heartbeat-timeout", 0, "declare a worker lost after this much silence (0 = 4x heartbeat)")
		retryLimit = flag.Int("retry-limit", 0, "retry limit: abandon a task evicted or exhausted more than this many times (0 = unbounded)")
		drain      = flag.Duration("drain-timeout", 5*time.Second, "how long Close waits for in-flight results")
	)
	flag.Parse()

	w, err := workflow.ByName(*wfName, *tasks, *seed)
	fatalIf(err)
	alg, err := allocator.ParseName(*algName)
	fatalIf(err)
	policy, err := allocator.New(alg, allocator.Config{Seed: *seed})
	fatalIf(err)

	opts := []wq.Option{
		wq.WithHeartbeat(*hbInterval, *hbTimeout),
		wq.WithRetryLimit(*retryLimit),
		wq.WithDrainTimeout(*drain),
	}
	var lw *runlog.Writer
	var logFile *os.File
	if *logPath != "" {
		logFile, err = os.Create(*logPath)
		fatalIf(err)
		lw, err = runlog.NewWriter(logFile, runlog.Header{
			Workload:    w.Name,
			Algorithm:   policy.Name(),
			Seed:        *seed,
			Tasks:       len(w.Tasks),
			Driver:      runlog.DriverWQ,
			Window:      w.SubmitWindow,
			Barriers:    w.Barriers,
			MaxAttempts: *retryLimit,
		})
		fatalIf(err)
		opts = append(opts, wq.WithTracer(wq.NewRunlogTracer(lw)))
	}

	m := wq.NewManager(policy, opts...)
	// From here on a failure exits through Close, which drains the workers
	// and tells them to leave: os.Exit skips deferred calls.
	fail := func(err error) {
		if err != nil {
			m.Close()
			fatalIf(err)
		}
	}
	// SIGINT or SIGTERM ends the run the way the deadline does.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, *timeout)
	defer cancel()
	bound, err := m.Listen(*addr)
	fail(err)
	fmt.Printf("manager listening on %s; waiting for %d worker(s)\n", bound, *minW)
	for m.Workers() < *minW {
		select {
		case <-ctx.Done():
			fail(fmt.Errorf("waiting for workers: %w", ctx.Err()))
		case <-time.After(100 * time.Millisecond):
		}
	}

	start := time.Now()
	res, err := m.RunWorkflow(ctx, w)
	fail(err)
	m.Close() // drain now so the drain events land before the log footer

	s := res.Summary()
	fmt.Printf("completed %d tasks in %s: attempts=%d retries=%d evictions=%d failed=%d workers(peak)=%d\n",
		s.Tasks, time.Since(start).Round(time.Millisecond), s.Attempts, s.Retries, s.Evictions,
		res.Failed, res.PeakWorkers)
	tab := report.New("", "resource", "AWE", "internal_frag", "failed_alloc")
	for _, ks := range s.PerKind {
		tab.AddRow(ks.Kind, report.Percent(ks.AWE),
			fmt.Sprintf("%.4g", ks.InternalFragmentation), fmt.Sprintf("%.4g", ks.FailedAllocation))
	}
	fatalIf(tab.Render(os.Stdout))

	st := m.Stats()
	fmt.Printf("\nengine: dispatches=%d successes=%d exhaustions=%d evictions=%d failures=%d requeues=%d\n",
		st.Dispatches, st.Successes, st.Exhaustions, st.Evictions, st.Failures, st.Requeues)
	fmt.Printf("        heartbeat_timeouts=%d workers_lost=%d peak_queue=%d peak_workers=%d\n",
		st.HeartbeatTimeouts, st.WorkersLost, st.PeakQueue, st.PeakWorkers)
	fmt.Printf("        frames_sent=%d flush_batches=%d decode_errors=%d\n",
		st.FramesSent, st.FlushBatches, st.DecodeErrors)
	fmt.Printf("        frames_per_flush=%.2f results_per_batch=%.2f\n",
		ratio(st.FramesSent, st.FlushBatches), ratio(st.ResultsStaged, st.ResultBatches))
	wtab := report.New("per-worker utilization",
		"worker", "connected", "dispatched", "successes", "exhaustions", "evictions", "busy (virtual s)")
	for _, ws := range st.Workers {
		wtab.AddRow(ws.ID, ws.Connected, ws.Dispatched, ws.Successes, ws.Exhaustions, ws.Evictions,
			fmt.Sprintf("%.1f", ws.BusySeconds))
	}
	fatalIf(wtab.Render(os.Stdout))

	if lw != nil {
		fatalIf(lw.Finish(res))
		fatalIf(logFile.Close())
		fmt.Printf("\nrun log (%d events) written to %s; replay with: dynalloc analyze %s\n",
			lw.Events(), *logPath, *logPath)
	}
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "wq-manager:", err)
		os.Exit(1)
	}
}

// ratio is n/d, or 0 when nothing was counted.
func ratio(n, d int64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}
