// Package metrics implements the evaluation metrics of Section II-C:
// per-task resource waste split into internal fragmentation and failed
// allocation, and the workflow-level Absolute Workflow Efficiency (AWE)
//
//	AWE = Σ C(T_i) / Σ A(T_i)
//
// where C(T_i) = c_i·t_i is a task's useful consumption and A(T_i) is its
// total allocation across every attempt. AWE is independent of the number of
// workers, which is what makes it the paper's headline metric on
// opportunistic resources.
package metrics

import (
	"fmt"

	"dynalloc/internal/resources"
)

// AttemptStatus describes how one execution attempt of a task ended.
type AttemptStatus int

const (
	// Success: the task completed within its allocation.
	Success AttemptStatus = iota
	// Exhausted: the task over-consumed its allocation and was killed; it
	// must be retried with a bigger allocation (assumption 4, Section II-B).
	Exhausted
	// Evicted: the worker disappeared mid-run (opportunistic eviction).
	// This is an infrastructure failure, not an allocation failure; the
	// task retries with the same allocation.
	Evicted
	// Failed: the task was abandoned permanently after exceeding its
	// retry budget (bounded retry under opportunistic loss). A Failed
	// attempt is a terminal marker: it holds no allocation time of its
	// own, and a task whose attempts end in Failed never succeeded.
	Failed
)

func (s AttemptStatus) String() string {
	switch s {
	case Success:
		return "success"
	case Exhausted:
		return "exhausted"
	case Evicted:
		return "evicted"
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("AttemptStatus(%d)", int(s))
	}
}

// Attempt records one execution attempt: the allocation it ran under, how
// long it ran (virtual seconds) before ending, and how it ended.
type Attempt struct {
	Alloc    resources.Vector
	Duration float64
	Status   AttemptStatus
}

// TaskOutcome aggregates every attempt of one task together with its true
// peak consumption and successful runtime.
type TaskOutcome struct {
	TaskID   int
	Category string
	Peak     resources.Vector // actual peak consumption (c, m, d)
	Runtime  float64          // duration t of the successful run
	Attempts []Attempt        // chronological; the last one has Status Success or Failed
	// SubmitTime and DoneTime are the times (seconds on the engine's clock:
	// virtual for the simulators, wall-clock since manager start for the
	// live engine) at which the task entered the ready queue and reached a
	// terminal state. They are trace metadata for run-log replay and do not
	// participate in any waste metric.
	SubmitTime float64
	DoneTime   float64
}

// Succeeded reports whether any attempt completed successfully. A task
// abandoned under a retry bound (its last attempt has Status Failed) never
// succeeded and contributes no useful consumption.
func (o *TaskOutcome) Succeeded() bool {
	for _, a := range o.Attempts {
		if a.Status == Success {
			return true
		}
	}
	return false
}

// FinalAlloc returns the allocation of the successful attempt, or the zero
// vector when the task never succeeded.
func (o *TaskOutcome) FinalAlloc() resources.Vector {
	for i := len(o.Attempts) - 1; i >= 0; i-- {
		if o.Attempts[i].Status == Success {
			return o.Attempts[i].Alloc
		}
	}
	return resources.Vector{}
}

// Retries returns the number of exhausted (allocation-failure) attempts.
func (o *TaskOutcome) Retries() int {
	n := 0
	for _, a := range o.Attempts {
		if a.Status == Exhausted {
			n++
		}
	}
	return n
}

// Consumption returns C(T) = c·t for resource kind k.
func (o *TaskOutcome) Consumption(k resources.Kind) float64 {
	return o.Peak.Get(k) * o.Runtime
}

// successDuration returns how long the successful attempt held its
// allocation. It equals the runtime unless the attempt also covered
// non-compute time (e.g. input staging under the data layer); a zero
// recorded duration falls back to the runtime.
func (o *TaskOutcome) successDuration() float64 {
	for i := len(o.Attempts) - 1; i >= 0; i-- {
		if o.Attempts[i].Status == Success {
			if d := o.Attempts[i].Duration; d > 0 {
				return d
			}
			return o.Runtime
		}
	}
	return 0
}

// InternalFragmentation returns a·d - c·t for kind k: everything the
// successful attempt held (allocation a over its duration d) beyond what
// the task consumed (peak c over the runtime t). When d equals the runtime
// this is the paper's t·(a - c).
func (o *TaskOutcome) InternalFragmentation(k resources.Kind) float64 {
	a := o.FinalAlloc().Get(k)
	if a == 0 {
		return 0
	}
	return a*o.successDuration() - o.Peak.Get(k)*o.Runtime
}

// FailedAllocation returns Σ a_i·t_i over the exhausted attempts for kind k.
func (o *TaskOutcome) FailedAllocation(k resources.Kind) float64 {
	sum := 0.0
	for _, at := range o.Attempts {
		if at.Status == Exhausted {
			sum += at.Alloc.Get(k) * at.Duration
		}
	}
	return sum
}

// Waste returns ResourceWaste(T) = t·(a-c) + Σ a_i·t_i for kind k.
func (o *TaskOutcome) Waste(k resources.Kind) float64 {
	return o.InternalFragmentation(k) + o.FailedAllocation(k)
}

// Allocation returns A(T) = a·d + Σ a_i·t_i for kind k, i.e. everything the
// task held across all allocation attempts (d being the successful
// attempt's duration, equal to the runtime unless the attempt included
// staging time).
func (o *TaskOutcome) Allocation(k resources.Kind) float64 {
	return o.FinalAlloc().Get(k)*o.successDuration() + o.FailedAllocation(k)
}

// EvictedTime returns the total duration of attempts lost to evictions.
func (o *TaskOutcome) EvictedTime() float64 {
	sum := 0.0
	for _, at := range o.Attempts {
		if at.Status == Evicted {
			sum += at.Duration
		}
	}
	return sum
}

// Accumulator folds task outcomes into workflow-level totals.
// The zero value is ready to use.
//
// By default, time held by evicted attempts is excluded from the allocation
// totals: an eviction is a property of the opportunistic infrastructure, not
// of the allocation decision, and the paper's AWE metric is defined to be
// independent of the worker pool.
type Accumulator struct {
	consumption [resources.NumKinds]float64
	allocation  [resources.NumKinds]float64
	internal    [resources.NumKinds]float64
	failed      [resources.NumKinds]float64

	tasks     int
	attempts  int
	retries   int
	evictions int
	failures  int
}

// Add folds one task outcome into the totals.
func (acc *Accumulator) Add(o TaskOutcome) {
	acc.tasks++
	acc.attempts += len(o.Attempts)
	for _, at := range o.Attempts {
		switch at.Status {
		case Exhausted:
			acc.retries++
		case Evicted:
			acc.evictions++
		case Failed:
			acc.failures++
		}
	}
	succeeded := o.Succeeded()
	for k := resources.Kind(0); k < resources.NumKinds; k++ {
		// A permanently failed task produced nothing useful: its failed
		// attempts still count as allocation (waste), but it contributes
		// no consumption to the AWE numerator.
		if succeeded {
			acc.consumption[k] += o.Consumption(k)
		}
		acc.allocation[k] += o.Allocation(k)
		acc.internal[k] += o.InternalFragmentation(k)
		acc.failed[k] += o.FailedAllocation(k)
	}
}

// AWE returns the Absolute Workflow Efficiency for kind k, in [0, 1] for
// feasible allocations (1 means every allocated unit was consumed). It
// returns 0 when nothing was allocated.
func (acc *Accumulator) AWE(k resources.Kind) float64 {
	if acc.allocation[k] == 0 {
		return 0
	}
	return acc.consumption[k] / acc.allocation[k]
}

// Consumption returns Σ C(T_i) for kind k.
func (acc *Accumulator) Consumption(k resources.Kind) float64 { return acc.consumption[k] }

// Allocation returns Σ A(T_i) for kind k.
func (acc *Accumulator) Allocation(k resources.Kind) float64 { return acc.allocation[k] }

// InternalFragmentation returns the total internal fragmentation for kind k.
func (acc *Accumulator) InternalFragmentation(k resources.Kind) float64 { return acc.internal[k] }

// FailedAllocation returns the total failed-allocation waste for kind k.
func (acc *Accumulator) FailedAllocation(k resources.Kind) float64 { return acc.failed[k] }

// Waste returns the total resource waste for kind k.
func (acc *Accumulator) Waste(k resources.Kind) float64 {
	return acc.internal[k] + acc.failed[k]
}

// Tasks returns the number of accumulated task outcomes.
func (acc *Accumulator) Tasks() int { return acc.tasks }

// Attempts returns the total number of execution attempts.
func (acc *Accumulator) Attempts() int { return acc.attempts }

// Retries returns the total number of allocation failures.
func (acc *Accumulator) Retries() int { return acc.retries }

// Evictions returns the total number of eviction-lost attempts.
func (acc *Accumulator) Evictions() int { return acc.evictions }

// Failures returns the number of tasks abandoned permanently after
// exhausting their retry budget.
func (acc *Accumulator) Failures() int { return acc.failures }

// Summary is a flat, serializable snapshot of an Accumulator, used by the
// figure harnesses and the trace dumps.
type Summary struct {
	Tasks     int           `json:"tasks"`
	Attempts  int           `json:"attempts"`
	Retries   int           `json:"retries"`
	Evictions int           `json:"evictions"`
	Failures  int           `json:"failures,omitempty"`
	PerKind   []KindSummary `json:"per_kind"`
}

// KindSummary holds the per-resource-kind metrics.
type KindSummary struct {
	Kind                  string  `json:"kind"`
	AWE                   float64 `json:"awe"`
	Consumption           float64 `json:"consumption"`
	Allocation            float64 `json:"allocation"`
	InternalFragmentation float64 `json:"internal_fragmentation"`
	FailedAllocation      float64 `json:"failed_allocation"`
}

// Summarize snapshots the accumulator for the allocated kinds.
func (acc *Accumulator) Summarize() Summary {
	s := Summary{
		Tasks:     acc.tasks,
		Attempts:  acc.attempts,
		Retries:   acc.retries,
		Evictions: acc.evictions,
		Failures:  acc.failures,
	}
	for _, k := range resources.AllocatedKinds() {
		s.PerKind = append(s.PerKind, KindSummary{
			Kind:                  k.String(),
			AWE:                   acc.AWE(k),
			Consumption:           acc.consumption[k],
			Allocation:            acc.allocation[k],
			InternalFragmentation: acc.internal[k],
			FailedAllocation:      acc.failed[k],
		})
	}
	return s
}
