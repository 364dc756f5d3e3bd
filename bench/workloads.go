package main

import (
	"fmt"
	"strings"
	"syscall"
	"time"

	"dynalloc/internal/metrics"
	"dynalloc/internal/opportunistic"
	"dynalloc/internal/resources"
)

// params are the fixed inputs of one workload. A run repeats one round of
// exactly these inputs (generated from the seed) until its time is up, and
// reports the median round; see README.md for why each value was chosen.
type params struct {
	System    string `json:"system"` // wq | allocd | sim
	Algorithm string `json:"algorithm"`
	Family    string `json:"family"` // synthetic workflow family
	// Tasks per round (per tenant on allocd).
	Tasks int `json:"tasks"`
	// InFlight is the closed loop's slot count on wq: each slot submits its
	// next task when the previous outcome arrives.
	InFlight int `json:"in_flight,omitempty"`
	// ChurnEvery kills and replaces one wq worker every so many completions.
	ChurnEvery int `json:"churn_every,omitempty"`
	// WorkerScale is a wq worker's capacity in paper workers (0 = 1).
	WorkerScale float64 `json:"worker_scale,omitempty"`
	// Tenants on allocd, one lockstep client connection each.
	Tenants int `json:"tenants,omitempty"`
	// Window is the simulator's submit window.
	Window int                  `json:"window,omitempty"`
	Churn  *opportunistic.Churn `json:"churn,omitempty"`
}

// connections is the number of load-generating connections every socket
// workload uses: two wq workers, two allocd tenants — few, so that the
// scheduler of a small shared machine is not what is measured.
const connections = 2

type workload struct {
	name string
	why  string
	// deterministic workloads repeat exactly: every round of a run must
	// produce identical AWE and counts, which the run checks.
	deterministic bool
	p             params
	// short is the same workload at the size the package's smoke test runs
	// (hundreds of tasks).
	short params
}

var workloads = []workload{
	{
		name:  "wq-greedy-recompute",
		why:   "wq over TCP, greedy-bucketing, bimodal 6000 tasks, 32 in flight (~16 queued): record rebuild + greedySplit under the manager lock are ~0.85 of wall; exercises core/record, bypasses nothing",
		p:     params{System: "wq", Algorithm: "greedy-bucketing", Family: "bimodal", Tasks: 6000, InFlight: 32},
		short: params{System: "wq", Algorithm: "greedy-bucketing", Family: "bimodal", Tasks: 300, InFlight: 32},
	},
	{
		name:  "wq-maxseen-deepq-churn",
		why:   "same engine, max-seen (no partition), uniform 20000 tasks, 256 in flight (~250 queued), a worker killed and replaced every 2048 completions: dispatch pass and eviction/requeue dominate; bypasses core",
		p:     params{System: "wq", Algorithm: "max-seen", Family: "uniform", Tasks: 20000, InFlight: 256, ChurnEvery: 2048},
		short: params{System: "wq", Algorithm: "max-seen", Family: "uniform", Tasks: 400, InFlight: 64, ChurnEvery: 128},
	},
	{
		name:  "wq-maxseen-shallow",
		why:   "same engine, max-seen, 100000 tasks, 16 in flight on workers big enough to hold them (queue ~0), static fleet: codec, flush/syscall and lock hand-off dominate; bypasses allocator and queue scan",
		p:     params{System: "wq", Algorithm: "max-seen", Family: "uniform", Tasks: 100000, InFlight: 16, WorkerScale: 4},
		short: params{System: "wq", Algorithm: "max-seen", Family: "uniform", Tasks: 500, InFlight: 16, WorkerScale: 4},
	},
	{
		name:          "allocd-cycle",
		why:           "allocd over TCP, 2 tenants in lockstep Allocate->Retry*->Observe on every task, exhaustive-bucketing, exponential 7000 tasks each: every Allocate repartitions (lazy-dirty worst case); exact counts",
		deterministic: true,
		p:             params{System: "allocd", Algorithm: "exhaustive-bucketing", Family: "exponential", Tasks: 7000, Tenants: connections},
		short:         params{System: "allocd", Algorithm: "exhaustive-bucketing", Family: "exponential", Tasks: 200, Tenants: connections},
	},
	{
		name:          "sim-maxseen-churn",
		why:           "sim.Run streaming uniform 40000 tasks, window 4096, max-seen, 256-worker churning pool, outcomes discarded: event engine, capacity index, task store and placement dominate; exact counts",
		deterministic: true,
		p: params{System: "sim", Algorithm: "max-seen", Family: "uniform", Tasks: 40000, Window: 4096,
			Churn: &opportunistic.Churn{Initial: 256, MeanLifetime: 260, MeanInterval: 1, Horizon: 12000, KeepLastAlive: true}},
		short: params{System: "sim", Algorithm: "max-seen", Family: "uniform", Tasks: 500, Window: 128,
			Churn: &opportunistic.Churn{Initial: 16, MeanLifetime: 260, MeanInterval: 20, Horizon: 4000, KeepLastAlive: true}},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// round is what one repetition of a workload measured.
type round struct {
	setupS float64 // generate inputs, start manager/server, connect peers
	wallS  float64 // the timed region: first submit to last outcome
	cpuS   float64 // process user+sys CPU over the timed region
	tasks  int     // tasks (allocd: cycles) submitted
	// failed counts tasks that did not reach exactly one successful outcome
	// whose final allocation covers the task's peak.
	failed    int
	latencyMS []float64 // per task, ascending
	aweMemory float64
	aweCores  float64
	// exact is the round's fingerprint on deterministic workloads: counts
	// that, like the two AWE values, must be bit-identical on every round of
	// a run.
	exact map[string]float64
	// violations are failed output checks beyond per-task failures
	// (counter mismatches, replay divergence).
	violations []string
	// layer holds the per-layer metrics; nil on untraced rounds.
	layer map[string]float64
	sink  *spanSink
}

func (r *round) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// checkOutcome applies the per-task output check: exactly one successful
// attempt, it is the last, and its allocation covers the task's true peak in
// every allocated kind.
func checkOutcome(o *metrics.TaskOutcome) bool {
	n := len(o.Attempts)
	if n == 0 || o.Attempts[n-1].Status != metrics.Success {
		return false
	}
	for _, a := range o.Attempts[:n-1] {
		if a.Status == metrics.Success {
			return false
		}
	}
	final := o.Attempts[n-1].Alloc
	for _, k := range resources.AllocatedKinds() {
		if o.Peak.Get(k) > final.Get(k) {
			return false
		}
	}
	return true
}

// awe computes the paper's Absolute Workflow Efficiency over several
// accumulators (the closed loop keeps one per slot so slots never share a
// lock): Σ consumption / Σ allocation.
func awe(accs []metrics.Accumulator, k resources.Kind) float64 {
	var c, a float64
	for i := range accs {
		c += accs[i].Consumption(k)
		a += accs[i].Allocation(k)
	}
	if a == 0 {
		return 0
	}
	return c / a
}

// cpuSeconds returns the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func sinceNS(start, t time.Time) int64 { return t.Sub(start).Nanoseconds() }
