package runlog

import (
	"context"
	"fmt"
	"sort"

	"dynalloc/internal/allocator"
	"dynalloc/internal/metrics"
	"dynalloc/internal/opportunistic"
	"dynalloc/internal/sim"
	"dynalloc/internal/workflow"
)

// This file closes the record → replay → what-if loop: a parsed Log becomes
// a workflow.Source (the recorded task stream, with true consumption
// recovered from the recorded peaks), a scripted pool (the realized churn
// schedule), and Resimulate drives both through the engine the log names.
// Replaying under the original allocator reproduces the recorded run
// bit-identically on DES/sequential traces — the engine is deterministic
// given the task stream, policy+seed, pool schedule, consumption model, and
// placement, all of which a format-2 header pins down — and replaying under
// a different allocator answers "what if this trace had been allocated
// differently?" against the exact same tasks and evictions.

// TraceSource returns a single-use workflow.Source that replays the
// recorded task stream: same IDs, categories, and hidden consumption
// vectors, in the recorded (submission) order, with the recorded submit
// window and barriers. Like every Source it is not reusable — build a fresh
// one per run.
func TraceSource(log *Log) (workflow.Source, error) {
	if len(log.Outcomes) == 0 {
		return nil, fmt.Errorf("runlog: trace has no task records to replay")
	}
	name := log.Header.Workload
	if name == "" {
		name = "trace"
	}
	return &traceSource{
		name:     name,
		window:   log.Header.Window,
		barriers: log.Header.Barriers,
		outcomes: log.Outcomes,
	}, nil
}

type traceSource struct {
	name     string
	window   int
	barriers []int
	outcomes []metrics.TaskOutcome
	i        int
}

func (s *traceSource) Name() string      { return s.name }
func (s *traceSource) SubmitWindow() int { return s.window }

func (s *traceSource) NextBarrier(after int) int {
	i := sort.SearchInts(s.barriers, after+1)
	if i == len(s.barriers) {
		return -1
	}
	return s.barriers[i]
}

func (s *traceSource) Next() (workflow.Task, bool) {
	if s.i >= len(s.outcomes) {
		return workflow.Task{}, false
	}
	o := &s.outcomes[s.i]
	s.i++
	// The recorded peak has the runtime in its time slot (task lines store
	// the full hidden 4-tuple), so it is exactly the generator's Consumption
	// vector.
	return workflow.Task{ID: o.TaskID, Category: o.Category, Consumption: o.Peak}, true
}

// ScriptedPool reconstructs the realized worker schedule of a recorded run
// as an opportunistic.Model. Preference order: explicit "worker" lines
// (format 2 simulator logs carry the exact schedule the run executed
// against); otherwise the schedule is derived from the live engine's
// worker-join / worker-lost event timeline, with times rebased to seconds
// since the earliest event and never-lost workers given unbounded
// lifetimes. A log with neither has no replayable pool.
func ScriptedPool(log *Log) (opportunistic.Model, error) {
	label := log.Header.Pool
	if label == "" {
		label = "recorded"
	}
	if len(log.Workers) > 0 {
		arrivals := make([]opportunistic.Arrival, len(log.Workers))
		for i, w := range log.Workers {
			arrivals[i] = opportunistic.Arrival{At: w.AtS, Lifetime: w.LifetimeS}
		}
		sort.SliceStable(arrivals, func(i, j int) bool { return arrivals[i].At < arrivals[j].At })
		return opportunistic.Scripted{Label: label, Arrivals: arrivals}, nil
	}
	if pool, ok := poolFromEvents(log.Events); ok {
		return opportunistic.Scripted{Label: label, Arrivals: pool}, nil
	}
	return nil, fmt.Errorf("runlog: trace has no worker lines or worker events; pool schedule is not replayable")
}

// poolFromEvents derives an arrival schedule from a live run's event
// timeline. The event names mirror wq's EventType constants (wq depends on
// runlog, so the strings are duplicated here rather than imported).
func poolFromEvents(events []EventRecord) ([]opportunistic.Arrival, bool) {
	type span struct {
		join int64
		lost int64 // 0 = never lost
	}
	var base int64
	joined := map[int]*span{}
	var order []int
	for i := range events {
		ev := &events[i]
		if base == 0 || ev.TimeNS < base {
			base = ev.TimeNS
		}
		switch ev.Event {
		case "worker-join":
			if _, dup := joined[ev.WorkerID]; !dup {
				joined[ev.WorkerID] = &span{join: ev.TimeNS}
				order = append(order, ev.WorkerID)
			}
		case "worker-lost", "heartbeat-timeout":
			if sp, ok := joined[ev.WorkerID]; ok && sp.lost == 0 {
				sp.lost = ev.TimeNS
			}
		}
	}
	if len(order) == 0 {
		return nil, false
	}
	arrivals := make([]opportunistic.Arrival, 0, len(order))
	for _, id := range order {
		sp := joined[id]
		a := opportunistic.Arrival{At: float64(sp.join-base) / 1e9}
		if sp.lost > sp.join {
			a.Lifetime = float64(sp.lost-sp.join) / 1e9
		}
		arrivals = append(arrivals, a)
	}
	sort.SliceStable(arrivals, func(i, j int) bool { return arrivals[i].At < arrivals[j].At })
	return arrivals, true
}

// Resimulate replays a recorded run under the given policy, re-creating the
// recorded environment: the engine the header names, the recorded
// consumption model, placement, worker shape, attempt bound, and — for pool
// runs — the realized worker schedule as a scripted pool. The recorded
// trace supplies the tasks; the policy supplies (possibly counterfactual)
// allocations. Replaying with a policy built as the header describes
// (algorithm + seed) reproduces the recorded summary bit-identically for
// simulator traces; live (wq) traces replay approximately, since the DES
// re-executes their wall-clock schedule on a virtual clock.
//
// Data-layer runs are refused: input staging times are not recorded, so no
// replay can reproduce their attempt durations.
func Resimulate(ctx context.Context, log *Log, policy allocator.Policy) (*sim.Result, error) {
	if policy == nil {
		return nil, fmt.Errorf("runlog: a policy is required to resimulate")
	}
	if log.Header.DataLayer {
		return nil, fmt.Errorf("runlog: data-layer runs record no staging times and cannot be replayed")
	}
	src, err := TraceSource(log)
	if err != nil {
		return nil, err
	}
	hdr := log.Header
	var model sim.ConsumptionModel
	if hdr.Model != "" {
		model, err = sim.ParseConsumptionModel(hdr.Model)
		if err != nil {
			return nil, fmt.Errorf("runlog: recorded model: %w", err)
		}
	}
	switch hdr.Driver {
	case DriverSequential, "":
		// v1 logs carry no driver; the sequential engine needs nothing
		// beyond the task stream, so it is the only faithful default.
		w := workflow.Materialize(src)
		return sim.RunSequentialContext(ctx, w, policy, model, hdr.MaxAttempts)
	case DriverDES, DriverWQ:
		pool, err := ScriptedPool(log)
		if err != nil {
			return nil, err
		}
		var place sim.Placement
		if hdr.Placement != "" {
			place, err = sim.ParsePlacement(hdr.Placement)
			if err != nil {
				return nil, fmt.Errorf("runlog: recorded placement: %w", err)
			}
		}
		cfg := sim.Config{
			Source:      src,
			Policy:      policy,
			Pool:        pool,
			WorkerShape: hdr.workerShape(),
			Model:       model,
			Place:       place,
			MaxAttempts: hdr.MaxAttempts,
		}
		return sim.RunContext(ctx, cfg)
	default:
		return nil, fmt.Errorf("runlog: unknown driver %q", hdr.Driver)
	}
}

// ResimulateAs is Resimulate under a freshly built allocator: algorithm
// names one of allocator.ExtendedNames() and the policy is seeded with the
// header's recorded seed, so ResimulateAs(ctx, log, hdr.Algorithm) is the
// exact-fidelity replay and any other algorithm is a counterfactual.
func ResimulateAs(ctx context.Context, log *Log, algorithm string) (*sim.Result, error) {
	alg, err := allocator.ParseName(algorithm)
	if err != nil {
		return nil, err
	}
	policy, err := allocator.New(alg, allocator.Config{Seed: log.Header.Seed})
	if err != nil {
		return nil, err
	}
	return Resimulate(ctx, log, policy)
}
