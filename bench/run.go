package main

import (
	"fmt"
	"maps"
	"runtime"
	"time"
)

// metricDef declares one end-to-end metric: what a user of the system sees,
// its direction, and the share of the baseline median by which it may worsen
// before a change counts as a regression. BENCHMARK.json repeats this table.
// abs, where set, is the absolute worsening -compare allows instead of the
// share. AWE is a property of the inputs, not of the machine's speed, so two
// runs of one seed are held to 0.01 where runs of different seeds (which is
// what the share bounds) differ by a percent or two. A set-up is a few
// milliseconds read once per round, whose share wanders by tens of percent;
// half a second more of it is work moved into set-up.
//
// The table is short on purpose. Every row is held to its bound on every
// workload by two ten-seed sets of runs on a shared host, so a row that
// repeats another (CPU per task is wall time per task with one P; the p90 of
// a closed loop moves with its median) only adds ways to be refused by noise.
// Those two are per-layer metrics, bench.cpu_us_per_task and
// bench.task_latency_p90_ms.
type metricDef struct {
	name, unit, better string
	bound, abs         float64
}

var endToEnd = []metricDef{
	{"tasks_per_s", "1/s", "higher", 0.25, 0},
	{"task_latency_p50_ms", "ms", "lower", 0.25, 0},
	{"awe_memory", "ratio", "higher", 0.05, 0.01},
	{"awe_cores", "ratio", "higher", 0.05, 0.01},
	{"setup_s", "s", "lower", 0.25, 0.5},
}

// layerDef declares one per-layer metric; the prefix of the name is the
// module it measures. A run reports the ones its system's layers produce.
type layerDef struct{ name, unit string }

// better gives the direction BENCHMARK.json must state for a per-layer
// metric. Almost all are costs or counts of work; the exceptions are the
// ratios that measure batching and coverage.
func (d layerDef) better() string {
	switch d.name {
	case "wq.frames_per_flush", "bench.budget_coverage":
		return "higher"
	}
	return "lower"
}

var perLayer = []layerDef{
	{"allocator.allocate_calls", "count"}, {"allocator.allocate_busy_s", "s"},
	{"allocator.allocate_p50_us", "us"}, {"allocator.allocate_p99_us", "us"},
	{"allocator.retry_calls", "count"}, {"allocator.retry_busy_s", "s"},
	{"allocator.observe_calls", "count"}, {"allocator.observe_busy_s", "s"},
	{"allocator.allocates_per_task", "ratio"}, {"allocator.retries_per_task", "ratio"},
	{"allocator.busy_share", "ratio"},

	{"core.recomputes", "count"}, {"core.recomputes_per_observe", "ratio"},
	{"core.recompute_busy_s", "s"}, {"core.partition_busy_s", "s"},
	{"core.predict_busy_s", "s"}, {"core.max_buckets", "count"},
	{"record.rebuild_busy_s", "s"}, {"record.records_final", "count"},

	{"wq.submit_busy_s", "s"}, {"wq.submit_p50_us", "us"}, {"wq.submit_p99_us", "us"},
	{"wq.queue_wait_p50_ms", "ms"}, {"wq.queue_wait_p99_ms", "ms"},
	{"wq.attempt_rtt_p50_ms", "ms"}, {"wq.attempt_rtt_p99_ms", "ms"},
	{"wq.queue_wait_slot_s", "s"}, {"wq.attempt_slot_s", "s"}, {"wq.handoff_slot_s", "s"},
	{"wq.dispatches_per_task", "ratio"}, {"wq.exhaustions", "count"},
	{"wq.evictions", "count"}, {"wq.requeues", "count"}, {"wq.stale_results", "count"},
	{"wq.failures", "count"}, {"wq.decode_errors", "count"}, {"wq.peak_queue", "count"},
	{"wq.frames_sent", "count"}, {"wq.flush_batches", "count"}, {"wq.frames_per_flush", "ratio"},

	{"serve.allocate_rtt_p50_us", "us"}, {"serve.allocate_rtt_p99_us", "us"},
	{"serve.retry_rtt_p50_us", "us"}, {"serve.retry_rtt_p99_us", "us"},
	{"serve.observe_call_p50_us", "us"}, {"serve.call_busy_s", "s"},
	{"serve.wire_busy_s", "s"}, {"serve.retries_per_cycle", "ratio"},
	{"serve.allocates", "count"}, {"serve.retries", "count"}, {"serve.observes", "count"},
	{"serve.decays", "count"}, {"serve.decode_errors", "count"},

	{"sim.engine_busy_s", "s"}, {"sim.engine_us_per_task", "us"},
	{"sim.attempts_per_task", "ratio"}, {"sim.evictions", "count"},
	{"sim.peak_workers", "count"}, {"sim.peak_window", "count"},
	{"sim.makespan_virtual_s", "s"},
	{"workflow.next_busy_s", "s"}, {"workflow.generate_s", "s"},
	{"opportunistic.schedule_s", "s"}, {"opportunistic.arrivals", "count"},

	{"proc.alloc_bytes_per_task", "B"}, {"proc.mallocs_per_task", "count"},
	{"proc.gc_cycles", "count"}, {"proc.gc_pause_total_ms", "ms"}, {"proc.peak_heap_mb", "MB"},
	{"bench.cpu_us_per_task", "us"},
	{"bench.task_latency_p90_ms", "ms"}, {"bench.task_latency_p99_ms", "ms"},
	{"bench.trace_overhead_ratio", "ratio"}, {"bench.spans", "count"},
	{"bench.driver_slot_s", "s"}, {"bench.budget_coverage", "ratio"},
	{"bench.op_failure_ratio", "ratio"},
}

// memSnapshot is the part of runtime.MemStats the proc.* metrics difference.
type memSnapshot struct {
	totalAlloc, mallocs, pauseNS, heapSys uint64
	numGC                                 uint32
}

func readMem() memSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnapshot{ms.TotalAlloc, ms.Mallocs, ms.PauseTotalNs, ms.HeapSys, ms.NumGC}
}

func procMetrics(m map[string]float64, before, after memSnapshot, tasks int) {
	m["proc.alloc_bytes_per_task"] = float64(after.totalAlloc-before.totalAlloc) / float64(tasks)
	m["proc.mallocs_per_task"] = float64(after.mallocs-before.mallocs) / float64(tasks)
	m["proc.gc_cycles"] = float64(after.numGC - before.numGC)
	m["proc.gc_pause_total_ms"] = float64(after.pauseNS-before.pauseNS) / 1e6
	m["proc.peak_heap_mb"] = float64(after.heapSys) / (1 << 20)
}

// metricValue is one reported metric: the median over a run's rounds, the
// rounds' quartile spread as a share of that median, and the round count.
type metricValue struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Spread float64 `json:"spread"`
	N      int     `json:"n"`
}

// runReport is one run of one workload, traced or not.
type runReport struct {
	Traced        bool `json:"traced"`
	Rounds        int  `json:"rounds"`
	TasksPerRound int  `json:"tasks_per_round"`
	Attempted     int  `json:"attempted"`
	Failed        int  `json:"failed"`
	Correct       bool `json:"correct"`
	// LatencyTail is the highest percentile with at least ten samples beyond
	// it in one round's latency samples, reported beside the median.
	LatencyTailPercentile float64  `json:"latency_tail_percentile,omitempty"`
	LatencyTailMS         float64  `json:"latency_tail_ms,omitempty"`
	LatencySamples        int      `json:"latency_samples"`
	Violations            []string `json:"violations,omitempty"`
	// Exact holds a deterministic workload's counts: identical on every round
	// of the run, and on every run of the same seed.
	Exact   map[string]float64     `json:"exact,omitempty"`
	Metrics map[string]metricValue `json:"metrics"`

	sink *spanSink // the last traced round's spans
}

func runRound(w workload, p params, seed uint64, traced bool, ref *allocdRef) (*round, error) {
	switch p.System {
	case "wq":
		return runWQ(p, seed, traced)
	case "allocd":
		return runAllocd(p, seed, traced, ref)
	case "sim":
		return runSim(p, seed, traced)
	}
	return nil, fmt.Errorf("workload %s: unknown system %q", w.name, p.System)
}

// minRounds is the fewest rounds a run makes however short its time: two, so
// a deterministic workload is always checked against itself.
const minRounds = 2

// runWorkload repeats rounds of one workload, all on the inputs the seed
// generates, for as many as fit into `seconds`, and reports each metric's median
// over the rounds. An untraced run reports the end-to-end metrics. A traced
// run reports the per-layer metrics from traced rounds and interleaves
// untraced rounds, so that the tracing overhead it reports compares rounds
// made under the same conditions.
func runWorkload(w workload, p params, seed uint64, seconds float64, traced bool) (*runReport, error) {
	rep := &runReport{Traced: traced, TasksPerRound: p.Tasks, Correct: true, Metrics: map[string]metricValue{}}
	if p.System == "allocd" {
		rep.TasksPerRound *= p.Tenants
	}
	var plain, withTrace []*round
	var first *round
	ref := &allocdRef{}
	begin := time.Now()
	// took is how long the last round of each kind (untraced, traced) took from
	// end to end. A run stops before a round it expects to overrun `seconds`,
	// so the run's length, which the contract caps, does not grow by a round.
	var took [2]time.Duration
	for n := 0; ; n++ {
		roundTraced := traced && n%2 == 0
		kind := 0
		if roundTraced {
			kind = 1
		}
		if n >= minRounds && (time.Since(begin)+took[kind]).Seconds() > seconds {
			break
		}
		roundBegin := time.Now()
		// Start every round from a collected heap, so one round's garbage is
		// not billed to the next round's timed region.
		runtime.GC()
		r, err := runRound(w, p, seed, roundTraced, ref)
		if err != nil {
			return nil, fmt.Errorf("%s round %d: %w", w.name, n, err)
		}
		took[kind] = time.Since(roundBegin)
		if first == nil {
			first = r
		} else if w.deterministic && !(r.aweMemory == first.aweMemory && r.aweCores == first.aweCores && maps.Equal(r.exact, first.exact)) {
			r.violate("round %d is not identical to round 0: awe %v/%v, %v vs awe %v/%v, %v",
				n, r.aweMemory, r.aweCores, r.exact, first.aweMemory, first.aweCores, first.exact)
		}
		rep.Rounds++
		rep.Attempted += r.tasks
		rep.Failed += r.failed + len(r.violations)
		rep.Violations = append(rep.Violations, r.violations...)
		if roundTraced {
			withTrace = append(withTrace, r)
			rep.sink = r.sink
		} else {
			plain = append(plain, r)
		}
	}
	rep.Correct = rep.Failed == 0
	rep.Exact = first.exact

	if !traced {
		for _, def := range endToEnd {
			get := endToEndValue(def.name)
			vals := make([]float64, len(plain))
			for i, r := range plain {
				vals[i] = get(r)
			}
			rep.Metrics[def.name] = metricValue{Value: median(vals), Unit: def.unit, Spread: quartileSpread(vals), N: len(vals)}
		}
		tails := make([]float64, 0, len(plain))
		for _, r := range plain {
			rep.LatencySamples = len(r.latencyMS)
			if p, ok := tailPercentile(len(r.latencyMS)); ok {
				rep.LatencyTailPercentile = p
				tails = append(tails, percentile(r.latencyMS, p))
			}
		}
		rep.LatencyTailMS = median(tails)
		return rep, nil
	}

	for _, r := range withTrace {
		// The per-layer metrics every system shares: process CPU per task and
		// the latency tail.
		r.layer["bench.cpu_us_per_task"] = r.cpuS / float64(r.tasks) * 1e6
		r.layer["bench.task_latency_p90_ms"] = percentile(r.latencyMS, 90)
		r.layer["bench.task_latency_p99_ms"] = percentile(r.latencyMS, 99)
	}
	for _, def := range perLayer {
		// Every traced round of a workload fills the same layers.
		if _, ok := withTrace[0].layer[def.name]; !ok {
			continue
		}
		vals := make([]float64, len(withTrace))
		for i, r := range withTrace {
			vals[i] = r.layer[def.name]
		}
		rep.Metrics[def.name] = metricValue{Value: median(vals), Unit: def.unit, Spread: quartileSpread(vals), N: len(vals)}
	}
	wall := func(rs []*round) float64 {
		vals := make([]float64, len(rs))
		for i, r := range rs {
			vals[i] = r.wallS
		}
		return median(vals)
	}
	// The three metrics of the run as a whole, not of a round.
	set := func(name, unit string, v float64) {
		rep.Metrics[name] = metricValue{Value: v, Unit: unit, N: 1}
	}
	if len(plain) > 0 && wall(plain) > 0 {
		set("bench.trace_overhead_ratio", "ratio", wall(withTrace)/wall(plain))
	}
	if rep.sink != nil {
		set("bench.spans", "count", float64(rep.sink.len()))
	}
	set("bench.op_failure_ratio", "ratio", float64(rep.Failed)/float64(rep.Attempted))
	return rep, nil
}

// endToEndValue returns the function that reads one end-to-end metric off a
// round.
func endToEndValue(name string) func(*round) float64 {
	switch name {
	case "tasks_per_s":
		return func(r *round) float64 { return float64(r.tasks) / r.wallS }
	case "task_latency_p50_ms":
		return func(r *round) float64 { return percentile(r.latencyMS, 50) }
	case "awe_memory":
		return func(r *round) float64 { return r.aweMemory }
	case "awe_cores":
		return func(r *round) float64 { return r.aweCores }
	case "setup_s":
		return func(r *round) float64 { return r.setupS }
	}
	panic("bench: no reader for end-to-end metric " + name)
}
