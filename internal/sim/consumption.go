// Package sim simulates the execution of a dynamic workflow on an
// opportunistic worker pool: the manager dispatches ready tasks with
// allocations obtained from a Policy, workers enforce those allocations and
// kill over-consuming tasks (assumptions 2-4 of Section II-B), failed tasks
// are retried with escalated allocations, and completed tasks report their
// resource records back to the allocator.
//
// Run is the discrete-event simulation, with worker placement, arrivals, and
// evictions. Because the paper's AWE metric is independent of the worker
// pool, RunSequential answers the efficiency questions of the figures and
// sweeps with the same engine in its cheapest configuration: the DES on one
// unbounded worker with a submit window of 1.
package sim

import (
	"errors"
	"fmt"

	"dynalloc/internal/names"
	"dynalloc/internal/resources"
)

// ConsumptionModel describes how a task's resource usage evolves over its
// run, which determines *when* an under-allocated task is killed and hence
// the duration term of each failed allocation (Section II-C defines failed
// allocation waste as Σ a_i·t_i). The paper's tasks were monitored by a real
// resource monitor; these parametric profiles are the simulation substitute
// (see DESIGN.md).
type ConsumptionModel int

const (
	// RampEarly: usage grows linearly and reaches the peak a quarter of the
	// way into the run, staying there, so an attempt allocated a < c is
	// killed at 0.25·t·a/c. This is the default and the model used by the
	// figure harnesses: the paper's production tasks (Python ML inference
	// and columnar data processing) acquire their working set early in the
	// run, so under-allocations are detected quickly.
	RampEarly ConsumptionModel = iota
	// RampLinear: usage grows linearly from zero to the peak across the
	// run, so an attempt allocated a < c is killed at t·a/c.
	RampLinear
	// PeakAtEnd: usage spikes to the peak at the end of the run; failed
	// attempts burn the full runtime (the most expensive failure model).
	PeakAtEnd
	// PeakImmediate: usage jumps to the peak immediately; failed attempts
	// are detected instantly and waste nothing (the cheapest failure
	// model). Useful as an ablation bound.
	PeakImmediate
)

// earlyPeakFraction is the fraction of the runtime at which RampEarly
// reaches peak consumption.
const earlyPeakFraction = 0.25

func (m ConsumptionModel) String() string {
	switch m {
	case RampLinear:
		return "ramp-linear"
	case RampEarly:
		return "ramp-early"
	case PeakAtEnd:
		return "peak-at-end"
	case PeakImmediate:
		return "peak-immediate"
	default:
		return fmt.Sprintf("ConsumptionModel(%d)", int(m))
	}
}

// Models returns all consumption models.
func Models() []ConsumptionModel {
	return []ConsumptionModel{RampEarly, RampLinear, PeakAtEnd, PeakImmediate}
}

// ErrUnknownModel is returned (wrapped) when a consumption model name does
// not match any model. Match it with errors.Is.
var ErrUnknownModel = errors.New("sim: unknown consumption model")

// ParseConsumptionModel converts a model name to a ConsumptionModel,
// following the shared Names()/Parse() registry contract: the error wraps
// ErrUnknownModel and lists the valid names.
func ParseConsumptionModel(s string) (ConsumptionModel, error) {
	return names.Parse(s, Models(), ConsumptionModel.String, ErrUnknownModel)
}

// EvaluateAttempt determines how an attempt ends when a task with the given
// peak consumption and runtime executes under alloc: the duration the
// attempt runs and the kinds in which it was caught over-consuming (nil
// means the attempt succeeds and duration equals the runtime).
//
// The time dimension is treated uniformly: "usage" of wall time is the
// elapsed time itself, so a task whose runtime exceeds its time allocation
// is killed when the allocation elapses.
//
// It is exported for the live execution engine (internal/wq), whose workers
// enforce allocations with the same virtual resource monitor the simulator
// uses.
func EvaluateAttempt(model ConsumptionModel, peak resources.Vector, runtime float64, alloc resources.Vector) (duration float64, exceeded []resources.Kind) {
	over := peak.With(resources.Time, runtime).Exceeded(alloc)
	if len(over) == 0 {
		return runtime, nil
	}
	switch model {
	case PeakAtEnd:
		return runtime, over
	case PeakImmediate:
		return 0, over
	default: // RampLinear, RampEarly
		// Each over-consumed kind crosses its allocation while usage ramps
		// toward the peak; the resource monitor kills the task at the
		// earliest crossing and reports the kinds crossing at that instant.
		fraction := 1.0
		if model == RampEarly {
			fraction = earlyPeakFraction
		}
		crossing := func(k resources.Kind) float64 {
			if k == resources.Time {
				// Wall time "usage" is the elapsed time itself; the kill
				// happens when the time allocation elapses.
				return alloc.Get(k)
			}
			return fraction * runtime * alloc.Get(k) / peak.Get(k)
		}
		earliest := runtime
		for _, k := range over {
			if t := crossing(k); t < earliest {
				earliest = t
			}
		}
		const tieTolerance = 1e-9
		var first []resources.Kind
		for _, k := range over {
			if crossing(k) <= earliest*(1+tieTolerance) {
				first = append(first, k)
			}
		}
		return earliest, first
	}
}
