package main

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"dynalloc/internal/allocator"
	"dynalloc/internal/metrics"
	"dynalloc/internal/resources"
	"dynalloc/internal/serve"
	"dynalloc/internal/sim"
	"dynalloc/internal/workflow"
)

// tenantResult is what one allocd tenant's scheduler loop measured.
type tenantResult struct {
	name      string
	seed      uint64
	tasks     []workflow.Task
	vectors   []resources.Vector // every vector the service returned, in call order
	latencyMS []float64
	acc       metrics.Accumulator
	failed    int
	retries   int64
	err       error
	// traced rounds: every client call timed.
	allocate, retry, observe sampledTimer
}

// runAllocd runs one round of the allocd workload: a serve.Server and one
// serve.Client per tenant over loopback TCP, each client a lockstep
// scheduler loop Allocate -> Retry* (until sim.EvaluateAttempt fits) ->
// Observe on every task. Lockstep on a private tenant makes every returned
// vector, and so every count and AWE, repeat exactly.
func runAllocd(p params, seed uint64, traced bool, ref *allocdRef) (*round, error) {
	r := &round{tasks: p.Tasks * p.Tenants}

	t0 := time.Now()
	e, err := setupAllocd(p, seed)
	if err != nil {
		return nil, err
	}
	defer e.close()
	r.setupS = time.Since(t0).Seconds()
	tenants, clients, srv := e.tenants, e.clients, e.srv

	// ---- timed region: the lockstep scheduler loops ----
	if traced {
		r.sink = &spanSink{}
	}
	var before memSnapshot
	if traced {
		before = readMem()
	}
	var wg sync.WaitGroup
	start := time.Now()
	cpu0 := cpuSeconds()
	for i, t := range tenants {
		wg.Add(1)
		go func(t *tenantResult, c *serve.Client, idBase int) {
			defer wg.Done()
			t.err = schedulerLoop(t, c, traced, start, r.sink, idBase)
		}(t, clients[i], i*p.Tasks)
	}
	wg.Wait()
	r.wallS = time.Since(start).Seconds()
	r.cpuS = cpuSeconds() - cpu0
	var after memSnapshot
	if traced {
		after = readMem()
	}
	for _, t := range tenants {
		if t.err != nil {
			return nil, fmt.Errorf("%s: %w", t.name, t.err)
		}
	}

	// ---- output checks ----
	// A stats round trip orders after every one-way observe on the same
	// connection, so the server counters below are final.
	for i, c := range clients {
		if _, err := c.Stats(); err != nil {
			return nil, fmt.Errorf("%s stats: %w", tenants[i].name, err)
		}
	}
	server := map[string]serve.TenantStats{}
	var decays int64
	for _, s := range srv.Stats() {
		server[s.Tenant] = s
		decays += s.Decays
	}
	accs := make([]metrics.Accumulator, len(tenants))
	var retries int64
	first := ref.vectors == nil
	var replay replayTimes
	for i, t := range tenants {
		s := server[t.name]
		n := int64(len(t.tasks))
		if s.Allocates != n || s.Retries != t.retries || s.Observes != n {
			r.violate("%s: server counted allocates/retries/observes %d/%d/%d, client sent %d/%d/%d",
				t.name, s.Allocates, s.Retries, s.Observes, n, t.retries, n)
		}
		// Every round of a run has the same inputs, so the first round's
		// vectors are checked against the embedded allocator and every later
		// round's against the first's. A traced round replays in any case:
		// the replay is where its allocator, core and record metrics come from.
		if first || traced {
			if at := replayEmbedded(t, p, &replay, traced); at >= 0 {
				r.violate("%s: service vector %d differs from the embedded allocator replay", t.name, at)
			}
		}
		if first {
			ref.vectors = append(ref.vectors, t.vectors)
		} else if !slices.Equal(t.vectors, ref.vectors[i]) {
			r.violate("%s: service vectors differ from the run's first round", t.name)
		}
		r.latencyMS = append(r.latencyMS, t.latencyMS...)
		r.failed += t.failed
		retries += t.retries
		accs[i] = t.acc
	}
	sort.Float64s(r.latencyMS)
	if n := srv.DecodeErrors(); n != 0 {
		r.violate("server decode errors: %d", n)
	}
	r.aweMemory = awe(accs, resources.Memory)
	r.aweCores = awe(accs, resources.Cores)
	r.exact = map[string]float64{"serve.retries": float64(retries)}

	if traced {
		m := map[string]float64{"workflow.generate_s": e.generateS}
		r.layer = m
		var al, re, ob sampledTimer
		for _, t := range tenants {
			mergeTimer(&al, &t.allocate)
			mergeTimer(&re, &t.retry)
			mergeTimer(&ob, &t.observe)
		}
		m["serve.allocate_rtt_p50_us"] = al.percentileUS(50)
		m["serve.allocate_rtt_p99_us"] = al.percentileUS(99)
		m["serve.retry_rtt_p50_us"] = re.percentileUS(50)
		m["serve.retry_rtt_p99_us"] = re.percentileUS(99)
		m["serve.observe_call_p50_us"] = ob.percentileUS(50)
		call := al.busy() + re.busy() + ob.busy()
		m["serve.call_busy_s"] = call
		// Wire cost = what the client waited in calls minus what the same
		// calls cost an in-process allocator.
		m["serve.wire_busy_s"] = call - replay.total()
		m["serve.retries_per_cycle"] = float64(retries) / float64(r.tasks)
		m["serve.allocates"] = float64(r.tasks)
		m["serve.retries"] = float64(retries)
		m["serve.observes"] = float64(r.tasks)
		m["serve.decays"] = float64(decays)
		m["serve.decode_errors"] = float64(srv.DecodeErrors())

		// The service's allocators live inside the server; the allocator and
		// core layers are measured on the embedded replay of the same calls.
		m["allocator.allocate_calls"] = float64(r.tasks)
		m["allocator.allocate_busy_s"] = replay.allocate.busy()
		m["allocator.allocate_p50_us"] = replay.allocate.percentileUS(50)
		m["allocator.allocate_p99_us"] = replay.allocate.percentileUS(99)
		m["allocator.retry_calls"] = float64(retries)
		m["allocator.retry_busy_s"] = replay.retry.busy()
		m["allocator.observe_calls"] = float64(r.tasks)
		m["allocator.observe_busy_s"] = replay.observe.busy()
		m["allocator.allocates_per_task"] = 1
		m["allocator.retries_per_task"] = float64(retries) / float64(r.tasks)
		// Tenants run in parallel, one allocator each: the share is of the
		// tenants' summed timelines.
		m["allocator.busy_share"] = replay.total() / (r.wallS * float64(p.Tenants))
		for k, v := range replay.core {
			m[k] = v
		}
		procMetrics(m, before, after, r.tasks)
	}
	return r, nil
}

// allocdEnv is a started allocd system: inputs generated, server listening,
// one registered client per tenant.
type allocdEnv struct {
	tenants   []*tenantResult
	generateS float64
	srv       *serve.Server
	clients   []*serve.Client
}

func setupAllocd(p params, seed uint64) (*allocdEnv, error) {
	e := &allocdEnv{tenants: make([]*tenantResult, p.Tenants), srv: serve.NewServer()}
	for i := range e.tenants {
		t0 := time.Now()
		tseed := seed + uint64(i)*1_000_003
		wf, err := workflow.Synthetic(p.Family, p.Tasks, tseed)
		if err != nil {
			return nil, err
		}
		e.generateS += time.Since(t0).Seconds()
		e.tenants[i] = &tenantResult{name: fmt.Sprintf("tenant-%d", i), seed: tseed, tasks: wf.Tasks}
	}
	addr, err := e.srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	for _, t := range e.tenants {
		c, err := serve.Dial(addr, t.name, p.Algorithm, t.seed)
		if err != nil {
			e.close()
			return nil, fmt.Errorf("dial %s: %w", t.name, err)
		}
		e.clients = append(e.clients, c)
	}
	return e, nil
}

// close hangs the clients up and drains the server.
func (e *allocdEnv) close() error {
	for _, c := range e.clients {
		c.Close() // the connection is only torn down; nothing is pending on it
	}
	e.srv.Close()
	return nil
}

// schedulerLoop is one tenant's lockstep loop. Task IDs on the wire are the
// tenant's own 1..n; span IDs are offset by idBase so cycles of different
// tenants stay distinct in the trace.
func schedulerLoop(t *tenantResult, c *serve.Client, traced bool, start time.Time, sink *spanSink, idBase int) error {
	t.vectors = make([]resources.Vector, 0, len(t.tasks)+len(t.tasks)/2)
	t.latencyMS = make([]float64, 0, len(t.tasks))
	var attempts []metrics.Attempt
	var calls []span // the current cycle's client calls
	call := func(name string, id int, timer *sampledTimer, t0 time.Time) time.Time {
		now := time.Now()
		if traced {
			timer.add(now.Sub(t0))
			s := span{Name: name, ID: id, Parent: "cycle", StartNS: sinceNS(start, t0), EndNS: sinceNS(start, now)}
			s.SelfNS = s.dur()
			sink.add(s)
			calls = append(calls, s)
		}
		return now
	}
	for _, task := range t.tasks {
		attempts = attempts[:0]
		peak, runtime := task.Consumption, task.Runtime()
		t0 := time.Now()
		alloc, err := c.Allocate(task.Category, task.ID)
		if err != nil {
			return fmt.Errorf("allocate task %d: %w", task.ID, err)
		}
		call("serve.allocate", idBase+task.ID, &t.allocate, t0)
		t.vectors = append(t.vectors, alloc)
		for {
			duration, exceeded := sim.EvaluateAttempt(sim.RampEarly, peak, runtime, alloc)
			if len(exceeded) == 0 {
				attempts = append(attempts, metrics.Attempt{Alloc: alloc, Duration: duration, Status: metrics.Success})
				break
			}
			attempts = append(attempts, metrics.Attempt{Alloc: alloc, Duration: duration, Status: metrics.Exhausted})
			if len(attempts) > sim.DefaultMaxAttempts {
				return fmt.Errorf("task %d: no fitting allocation after %d attempts", task.ID, len(attempts))
			}
			t1 := time.Now()
			alloc, err = c.Retry(task.Category, task.ID, alloc, exceeded)
			if err != nil {
				return fmt.Errorf("retry task %d: %w", task.ID, err)
			}
			call("serve.retry", idBase+task.ID, &t.retry, t1)
			t.retries++
			t.vectors = append(t.vectors, alloc)
		}
		t1 := time.Now()
		if err := c.Observe(task.Category, task.ID, peak, runtime); err != nil {
			return fmt.Errorf("observe task %d: %w", task.ID, err)
		}
		end := call("serve.observe", idBase+task.ID, &t.observe, t1)
		t.latencyMS = append(t.latencyMS, end.Sub(t0).Seconds()*1e3)
		if traced {
			root := span{Name: "cycle", ID: idBase + task.ID, StartNS: sinceNS(start, t0), EndNS: sinceNS(start, end)}
			root.SelfNS = selfTime(root, calls)
			sink.add(root)
			calls = calls[:0]
		}
		o := metrics.TaskOutcome{TaskID: task.ID, Category: task.Category, Peak: peak, Runtime: runtime, Attempts: attempts}
		if !checkOutcome(&o) {
			t.failed++
		}
		t.acc.Add(o)
	}
	return nil
}

// allocdRef carries what the first round of an allocd run established for
// the later rounds: the vectors the service returned, per tenant, checked
// against the embedded replay.
type allocdRef struct{ vectors [][]resources.Vector }

// replayTimes accumulates what one round's call streams cost an embedded
// allocator, and the core/record telemetry of those allocators.
type replayTimes struct {
	allocate, retry, observe sampledTimer
	core                     map[string]float64
}

func (rt *replayTimes) total() float64 {
	return rt.allocate.busy() + rt.retry.busy() + rt.observe.busy()
}

// replayEmbedded re-runs a tenant's exact call stream against an in-process
// allocator.Allocator built the way the service builds a tenant's, and
// returns the index of the first service vector that is not bit-identical,
// or -1. It times every call, which is the allocator-layer cost the service
// paid for this stream without any wire around it.
func replayEmbedded(t *tenantResult, p params, rt *replayTimes, traced bool) int {
	a, err := allocator.New(allocator.Name(p.Algorithm), allocator.Config{Seed: t.seed})
	if err != nil {
		return 0
	}
	tp := newTracedPolicy(a, time.Now(), &spanSink{})
	tp.allocate.every, tp.retry.every, tp.observe.every = 1, 1, 1
	at, diverged := 0, -1
	check := func(v resources.Vector) {
		if diverged < 0 && (at >= len(t.vectors) || v != t.vectors[at]) {
			diverged = at
		}
		at++
	}
	for _, task := range t.tasks {
		peak, runtime := task.Consumption, task.Runtime()
		alloc := tp.Allocate(task.Category, task.ID)
		check(alloc)
		for n := 0; n <= sim.DefaultMaxAttempts; n++ {
			_, exceeded := sim.EvaluateAttempt(sim.RampEarly, peak, runtime, alloc)
			if len(exceeded) == 0 {
				break
			}
			alloc = tp.Retry(task.Category, task.ID, alloc, exceeded)
			check(alloc)
		}
		tp.Observe(task.Category, task.ID, peak, runtime)
	}
	if diverged < 0 && at != len(t.vectors) {
		diverged = at
	}
	mergeTimer(&rt.allocate, &tp.allocate)
	mergeTimer(&rt.retry, &tp.retry)
	mergeTimer(&rt.observe, &tp.observe)
	if !traced {
		return diverged
	}
	// Sum the core/record telemetry over tenants.
	m := map[string]float64{}
	coreMetrics(m, a, p.Family, float64(len(t.tasks)))
	replayLayers(m, coreAlgorithm(a.Algorithm()), tp.log)
	if rt.core == nil {
		rt.core = map[string]float64{}
	}
	for k, v := range m {
		switch k {
		case "core.max_buckets", "core.recomputes_per_observe":
			if v > rt.core[k] {
				rt.core[k] = v
			}
		default:
			rt.core[k] += v
		}
	}
	return diverged
}

// mergeTimer folds src's calls and samples into dst (both must time every
// call, or share a sampling period).
func mergeTimer(dst, src *sampledTimer) {
	dst.calls.Add(src.calls.Load())
	src.mu.Lock()
	dst.mu.Lock()
	dst.samples = append(dst.samples, src.samples...)
	dst.mu.Unlock()
	src.mu.Unlock()
}
