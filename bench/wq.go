package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dynalloc/internal/allocator"
	"dynalloc/internal/metrics"
	"dynalloc/internal/resources"
	"dynalloc/internal/workflow"
	"dynalloc/internal/wq"
)

// wqEvent is a manager lifecycle event reduced to what span building needs;
// the tracer callback runs under the manager's lock, so it only appends.
type wqEvent struct {
	at   time.Time
	kind uint8
	task int
}

const (
	evDispatch uint8 = iota
	evResult
	evEviction
	evRequeue
)

// liveWorker is one wq.RunWorker goroutine and the means to stop it.
type liveWorker struct {
	cancel context.CancelFunc
	done   chan error
}

func startWorker(addr string, cfg wq.WorkerConfig) *liveWorker {
	ctx, cancel := context.WithCancel(context.Background())
	w := &liveWorker{cancel: cancel, done: make(chan error, 1)}
	go func() { w.done <- wq.RunWorker(ctx, addr, cfg) }()
	return w
}

// stop cancels the worker (closing its connection, which the manager sees as
// a lost worker) and waits until its goroutines have ended.
func (w *liveWorker) stop() error {
	w.cancel()
	return <-w.done
}

// slotResult is what one closed-loop slot measured, kept slot-private so
// slots share no lock on the hot path.
type slotResult struct {
	latencyMS []float64
	acc       metrics.Accumulator
	attempts  int
	failed    int
	submitS   []float64 // Submit call durations (traced rounds)
	roots     []span    // root task spans (traced rounds)
	driverNS  int64     // time outside Submit and outside waiting (traced rounds)
}

// wqEnv is a started wq system: inputs generated, manager listening, workers
// registered.
type wqEnv struct {
	wf        *workflow.Workflow
	generateS float64
	alloc     *allocator.Allocator
	tp        *tracedPolicy // nil on untraced rounds
	events    []wqEvent
	m         *wq.Manager
	addr      string
	cfg       wq.WorkerConfig
	workers   []*liveWorker
}

func setupWQ(p params, seed uint64, sink *spanSink) (*wqEnv, error) {
	e := &wqEnv{}
	t0 := time.Now()
	var err error
	if e.wf, err = workflow.Synthetic(p.Family, p.Tasks, seed); err != nil {
		return nil, err
	}
	e.generateS = time.Since(t0).Seconds()
	if e.alloc, err = allocator.New(allocator.Name(p.Algorithm), allocator.Config{Seed: seed}); err != nil {
		return nil, err
	}
	var policy allocator.Policy = e.alloc
	var opts []wq.Option
	if sink != nil {
		e.tp = newTracedPolicy(e.alloc, time.Time{}, sink)
		policy = e.tp
		e.events = make([]wqEvent, 0, 4*p.Tasks)
		opts = append(opts, wq.WithTracer(wq.FuncTracer(func(ev wq.Event) {
			var kind uint8
			switch ev.Type {
			case wq.EventDispatch:
				kind = evDispatch
			case wq.EventResult:
				kind = evResult
			case wq.EventEviction:
				kind = evEviction
			case wq.EventRequeue:
				kind = evRequeue
			default:
				return
			}
			e.events = append(e.events, wqEvent{at: ev.Time, kind: kind, task: ev.TaskID})
		})))
	}
	e.m = wq.NewManager(policy, opts...)
	if e.addr, err = e.m.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	e.cfg = wq.WorkerConfig{TimeScale: 1e-12}
	if p.WorkerScale > 0 {
		e.cfg.Capacity = resources.PaperWorker().Scale(p.WorkerScale)
	}
	e.workers = make([]*liveWorker, connections)
	for i := range e.workers {
		e.workers[i] = startWorker(e.addr, e.cfg)
	}
	for e.m.Workers() < connections {
		time.Sleep(50 * time.Microsecond)
	}
	return e, nil
}

// close drains the manager, which tells the workers to exit, and waits for
// every worker goroutine to end.
func (e *wqEnv) close() error {
	e.m.Close()
	var first error
	for _, w := range e.workers {
		if err := w.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// runWQ runs one round of a wq workload: a wq.Manager and two wq.RunWorker
// connections over loopback TCP, driven through Submit by a closed loop of
// p.InFlight slots.
func runWQ(p params, seed uint64, traced bool) (*round, error) {
	r := &round{tasks: p.Tasks}
	if traced {
		r.sink = &spanSink{}
	}
	t0 := time.Now()
	e, err := setupWQ(p, seed, r.sink)
	if err != nil {
		return nil, err
	}
	r.setupS = time.Since(t0).Seconds()
	wf, m, tp := e.wf, e.m, e.tp

	// ---- timed region: the closed loop ----
	var before memSnapshot
	if traced {
		before = readMem()
	}
	var next, completed atomic.Int64
	var churnMu sync.Mutex
	var churnErr error
	churn := func(n int) {
		churnMu.Lock()
		defer churnMu.Unlock()
		i := n % len(e.workers)
		if err := e.workers[i].stop(); err != nil && churnErr == nil {
			churnErr = fmt.Errorf("killed worker: %w", err)
		}
		// Stats().Workers lists every worker that ever joined: wait for the
		// replacement to appear there, so a round cannot end (and close the
		// listener) while a replacement is still dialling.
		joined := len(m.Stats().Workers)
		w := startWorker(e.addr, e.cfg)
		e.workers[i] = w
		for len(m.Stats().Workers) == joined {
			select {
			case err := <-w.done:
				// It ended without ever joining; leave the verdict for stop().
				w.done <- err
				return
			default:
				time.Sleep(50 * time.Microsecond)
			}
		}
	}
	slots := make([]slotResult, p.InFlight)
	var wg sync.WaitGroup
	start := time.Now()
	cpu0 := cpuSeconds()
	if tp != nil {
		tp.start = start
	}
	for s := range slots {
		wg.Add(1)
		go func(res *slotResult) {
			defer wg.Done()
			idle := time.Now()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(wf.Tasks) {
					return
				}
				t0 := time.Now()
				ch := m.Submit(wf.Tasks[i])
				var t1 time.Time
				if traced {
					t1 = time.Now()
				}
				o := <-ch
				t2 := time.Now()
				res.latencyMS = append(res.latencyMS, t2.Sub(t0).Seconds()*1e3)
				res.attempts += len(o.Attempts)
				if !checkOutcome(&o) {
					res.failed++
				}
				res.acc.Add(o)
				// The last churn lands at least one period before the end, so
				// the replacement always has work left to join for.
				if c := int(completed.Add(1)); p.ChurnEvery > 0 && c%p.ChurnEvery == 0 && c+p.ChurnEvery <= len(wf.Tasks) {
					churn(c / p.ChurnEvery)
				}
				if traced {
					res.submitS = append(res.submitS, t1.Sub(t0).Seconds())
					res.roots = append(res.roots, span{Name: "task", ID: o.TaskID,
						StartNS: sinceNS(start, t0), EndNS: sinceNS(start, t2)})
					now := time.Now()
					res.driverNS += t0.Sub(idle).Nanoseconds() + now.Sub(t2).Nanoseconds()
					idle = now
				}
			}
		}(&slots[s])
	}
	wg.Wait()
	r.wallS = time.Since(start).Seconds()
	r.cpuS = cpuSeconds() - cpu0
	var after memSnapshot
	if traced {
		after = readMem()
	}

	// ---- teardown and output checks ----
	stats := m.Stats()
	if err := e.close(); err != nil {
		r.violate("worker exit: %v", err)
	}
	if churnErr != nil {
		r.violate("%v", churnErr)
	}
	accs := make([]metrics.Accumulator, len(slots))
	attempts := 0
	for i := range slots {
		r.latencyMS = append(r.latencyMS, slots[i].latencyMS...)
		r.failed += slots[i].failed
		attempts += slots[i].attempts
		accs[i] = slots[i].acc
	}
	sort.Float64s(r.latencyMS)
	if len(r.latencyMS) != p.Tasks {
		r.violate("%d outcomes for %d submitted tasks", len(r.latencyMS), p.Tasks)
	}
	if stats.Dispatches != attempts {
		r.violate("Stats().Dispatches = %d, summed attempts = %d", stats.Dispatches, attempts)
	}
	if stats.Successes != p.Tasks || stats.Failures != 0 || stats.DecodeErrors != 0 {
		r.violate("Stats(): successes=%d failures=%d decode_errors=%d for %d tasks",
			stats.Successes, stats.Failures, stats.DecodeErrors, p.Tasks)
	}
	r.aweMemory = awe(accs, resources.Memory)
	r.aweCores = awe(accs, resources.Cores)

	if traced {
		r.layer = map[string]float64{"workflow.generate_s": e.generateS}
		tp.layerMetrics(r.layer, p.Tasks, r.wallS)
		coreMetrics(r.layer, e.alloc, p.Family, tp.observe.count())
		replayLayers(r.layer, coreAlgorithm(e.alloc.Algorithm()), tp.log)
		wqLayerMetrics(r, p, stats, slots, e.events, start)
		procMetrics(r.layer, before, after, p.Tasks)
	}
	return r, nil
}

// wqLayerMetrics turns the manager's event stream, its counters and the
// driver-side timings into the wq.* per-layer metrics and the round's spans.
func wqLayerMetrics(r *round, p params, stats wq.Stats, slots []slotResult, events []wqEvent, start time.Time) {
	m := r.layer
	var submit []float64
	var driverNS int64
	// Task IDs are the manager's own monotonic counter, 1..Tasks.
	roots := make([]span, p.Tasks+1)
	for i := range slots {
		submit = append(submit, slots[i].submitS...)
		driverNS += slots[i].driverNS
		for _, s := range slots[i].roots {
			if s.ID >= 1 && s.ID <= p.Tasks {
				roots[s.ID] = s
			}
		}
	}
	sort.Float64s(submit)
	sum := 0.0
	for _, s := range submit {
		sum += s
	}
	m["wq.submit_busy_s"] = sum
	m["wq.submit_p50_us"] = percentile(submit, 50) * 1e6
	m["wq.submit_p99_us"] = percentile(submit, 99) * 1e6

	// Walk the totally ordered event stream once, cutting each task's life
	// into queue_wait (submit or requeue -> dispatch) and attempt (dispatch
	// -> result or eviction) spans.
	type life struct {
		queuedNS, dispatchNS int64
		children             []span
	}
	lives := make([]life, p.Tasks+1)
	for id := range lives {
		lives[id].queuedNS = roots[id].StartNS
	}
	var queueWait, attemptRTT []float64
	var queueNS, attemptNS int64
	for _, ev := range events {
		if ev.task < 1 || ev.task > p.Tasks {
			continue
		}
		l := &lives[ev.task]
		at := sinceNS(start, ev.at)
		switch ev.kind {
		case evDispatch:
			if at < l.queuedNS {
				// The driver's clock read precedes Submit taking the lock, so
				// this only happens within clock granularity.
				at = l.queuedNS
			}
			s := span{Name: "wq.queue_wait", ID: ev.task, Parent: "task", StartNS: l.queuedNS, EndNS: at}
			s.SelfNS = s.dur()
			r.sink.add(s)
			queueWait = append(queueWait, float64(s.dur())/1e6)
			queueNS += s.dur()
			l.children = append(l.children, s)
			l.dispatchNS = at
		case evResult, evEviction:
			s := span{Name: "wq.attempt", ID: ev.task, Parent: "task", StartNS: l.dispatchNS, EndNS: at}
			s.SelfNS = s.dur()
			r.sink.add(s)
			attemptRTT = append(attemptRTT, float64(s.dur())/1e6)
			attemptNS += s.dur()
			l.children = append(l.children, s)
			l.queuedNS = at // a retry or requeue waits again from here
		case evRequeue:
			l.queuedNS = at
		}
	}
	var rootNS, selfNS int64
	for id := 1; id <= p.Tasks; id++ {
		root := roots[id]
		root.SelfNS = selfTime(root, lives[id].children)
		r.sink.add(root)
		rootNS += root.dur()
		selfNS += root.SelfNS
	}
	sort.Float64s(queueWait)
	sort.Float64s(attemptRTT)
	m["wq.queue_wait_p50_ms"] = percentile(queueWait, 50)
	m["wq.queue_wait_p99_ms"] = percentile(queueWait, 99)
	m["wq.attempt_rtt_p50_ms"] = percentile(attemptRTT, 50)
	m["wq.attempt_rtt_p99_ms"] = percentile(attemptRTT, 99)

	// The closed loop keeps every slot occupied, so the slot-seconds the
	// spans account for, divided by the slot count, reproduce the wall time.
	// The three shares say where a task's life went.
	slotS := float64(p.InFlight)
	m["wq.queue_wait_slot_s"] = float64(queueNS) / 1e9 / slotS
	m["wq.attempt_slot_s"] = float64(attemptNS) / 1e9 / slotS
	m["wq.handoff_slot_s"] = float64(selfNS) / 1e9 / slotS
	m["bench.driver_slot_s"] = float64(driverNS) / 1e9 / slotS
	m["bench.budget_coverage"] = (float64(rootNS+driverNS) / 1e9 / slotS) / r.wallS

	m["wq.dispatches_per_task"] = float64(stats.Dispatches) / float64(p.Tasks)
	m["wq.exhaustions"] = float64(stats.Exhaustions)
	m["wq.evictions"] = float64(stats.Evictions)
	m["wq.requeues"] = float64(stats.Requeues)
	m["wq.stale_results"] = float64(stats.StaleResults)
	m["wq.failures"] = float64(stats.Failures)
	m["wq.decode_errors"] = float64(stats.DecodeErrors)
	m["wq.peak_queue"] = float64(stats.PeakQueue)
	m["wq.frames_sent"] = float64(stats.FramesSent)
	m["wq.flush_batches"] = float64(stats.FlushBatches)
	if stats.FlushBatches > 0 {
		m["wq.frames_per_flush"] = float64(stats.FramesSent) / float64(stats.FlushBatches)
	}
}
