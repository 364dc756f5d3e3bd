package main

import (
	"sort"
	"time"

	"dynalloc/internal/allocator"
	"dynalloc/internal/metrics"
	"dynalloc/internal/resources"
	"dynalloc/internal/sim"
	"dynalloc/internal/workflow"
)

// runSim runs one round of the simulator workload: sim.Run over a lazily
// generated source on a churning opportunistic pool, outcomes streamed
// through OnOutcome and discarded. A task's latency is the wall-clock time
// from the simulator pulling it out of the source to the simulator reporting
// its completion to the allocator — the time the task was live inside the
// simulator. (Outcomes are emitted in task order, so the time to emission
// would mostly measure the unluckiest earlier task, not this one.)
func runSim(p params, seed uint64, traced bool) (*round, error) {
	r := &round{tasks: p.Tasks}

	t0 := time.Now()
	e, err := setupSim(p, seed, traced)
	if err != nil {
		return nil, err
	}
	r.setupS = time.Since(t0).Seconds()
	src, alloc := e.src, e.alloc

	var policy allocator.Policy = alloc
	var tp *tracedPolicy
	if traced {
		r.sink = &spanSink{}
		tp = newTracedPolicy(alloc, time.Time{}, r.sink)
		policy = tp
	}
	stamped := &completionStamps{Policy: policy, done: make([]time.Time, p.Tasks)}
	r.latencyMS = make([]float64, 0, p.Tasks)
	attempts := 0
	var before memSnapshot
	if traced {
		before = readMem()
	}
	start := time.Now()
	cpu0 := cpuSeconds()
	if tp != nil {
		tp.start = start
	}
	cfg := sim.Config{
		Source:          src,
		Policy:          stamped,
		Pool:            *p.Churn,
		PoolSeed:        seed,
		DiscardOutcomes: true,
		OnOutcome: func(o *metrics.TaskOutcome) {
			pulled, now := src.pulled[o.TaskID-1], stamped.done[o.TaskID-1]
			r.latencyMS = append(r.latencyMS, now.Sub(pulled).Seconds()*1e3)
			attempts += len(o.Attempts)
			if !checkOutcome(o) {
				r.failed++
			}
			if traced {
				r.sink.add(span{Name: "task", ID: o.TaskID, StartNS: sinceNS(start, pulled), EndNS: sinceNS(start, now)})
			}
		},
	}
	res, err := sim.Run(cfg)
	if err != nil {
		return nil, err
	}
	r.wallS = time.Since(start).Seconds()
	r.cpuS = cpuSeconds() - cpu0
	var after memSnapshot
	if traced {
		after = readMem()
	}

	sort.Float64s(r.latencyMS)
	if len(r.latencyMS) != p.Tasks || res.Acc.Tasks() != p.Tasks {
		r.violate("%d outcomes emitted, %d accumulated, for %d tasks", len(r.latencyMS), res.Acc.Tasks(), p.Tasks)
	}
	if res.Failed != 0 {
		r.violate("%d tasks failed", res.Failed)
	}
	r.aweMemory = res.Acc.AWE(resources.Memory)
	r.aweCores = res.Acc.AWE(resources.Cores)
	r.exact = map[string]float64{"sim.evictions": float64(res.Evictions), "sim.makespan_virtual_s": res.Makespan, "sim.attempts": float64(attempts)}

	if traced {
		m := map[string]float64{"opportunistic.schedule_s": e.scheduleS, "opportunistic.arrivals": float64(e.arrivals)}
		r.layer = m
		tp.layerMetrics(m, p.Tasks, r.wallS)
		coreMetrics(m, alloc, p.Family, tp.observe.count())
		m["workflow.next_busy_s"] = src.next.busy()
		engine := r.wallS - m["allocator.allocate_busy_s"] - m["allocator.retry_busy_s"] - m["allocator.observe_busy_s"] - src.next.busy()
		m["sim.engine_busy_s"] = engine
		m["sim.engine_us_per_task"] = engine / float64(p.Tasks) * 1e6
		m["sim.attempts_per_task"] = float64(attempts) / float64(p.Tasks)
		m["sim.evictions"] = float64(res.Evictions)
		m["sim.peak_workers"] = float64(res.PeakWorkers)
		m["sim.peak_window"] = float64(res.PeakWindow)
		m["sim.makespan_virtual_s"] = res.Makespan
		procMetrics(m, before, after, p.Tasks)
	}
	return r, nil
}

// completionStamps records the wall-clock time of every task's Observe call,
// which the simulator makes at the moment the task completes. It is the only
// thing between the simulator and the policy on untraced rounds.
type completionStamps struct {
	allocator.Policy
	done []time.Time // indexed by task ID − 1
}

func (c *completionStamps) Observe(category string, taskID int, peak resources.Vector, runtime float64) {
	c.Policy.Observe(category, taskID, peak, runtime)
	if i := taskID - 1; i >= 0 && i < len(c.done) {
		c.done[i] = time.Now()
	}
}

// simEnv is the simulator's inputs, ready to run: the lazy source, the
// allocator, and the pool schedule drawn once from outside — sim.Run draws
// it again itself from (Pool, PoolSeed), and drawing it here is how the
// opportunistic layer is timed without reaching into the simulator.
type simEnv struct {
	src       *tracedSource
	alloc     *allocator.Allocator
	scheduleS float64
	arrivals  int
}

func setupSim(p params, seed uint64, traced bool) (*simEnv, error) {
	inner, err := workflow.SourceByName(p.Family, p.Tasks, seed)
	if err != nil {
		return nil, err
	}
	e := &simEnv{src: &tracedSource{Source: workflow.WithSubmitWindow(inner, p.Window), pulled: make([]time.Time, p.Tasks), timed: traced}}
	e.src.next.every = sampleEvery
	if e.alloc, err = allocator.New(allocator.Name(p.Algorithm), allocator.Config{Seed: seed}); err != nil {
		return nil, err
	}
	t0 := time.Now()
	e.arrivals = len(p.Churn.Schedule(seed))
	e.scheduleS = time.Since(t0).Seconds()
	return e, nil
}
