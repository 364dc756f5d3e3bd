// Package workflow defines the task model and generates the seven evaluation
// workloads of the paper: the five synthetic workflows of Section V-B
// (Normal, Uniform, Exponential, Bimodal, Phasing Trimodal; 1000 tasks each)
// and synthetic reconstructions of the two production workflows of
// Section III (ColmenaXTB and TopEFT), whose per-category resource
// distributions, task counts, and phase structure follow the paper's
// Figure 2 description.
//
// A Task carries its true resource consumption 4-tuple (c, m, d, t), which
// by the paper's assumption 1 is hidden from the allocator until the task
// completes; only the simulator and the oracle may look at it.
package workflow

import (
	"errors"
	"fmt"
	"sort"

	"dynalloc/internal/names"
	"dynalloc/internal/resources"
)

// ErrUnknownWorkflow is returned (wrapped) when a workload name does not
// match any evaluation workload. Match it with errors.Is.
var ErrUnknownWorkflow = errors.New("workflow: unknown workload")

// Task is one unit of work. Consumption holds the task's peak cores, memory
// (MB), disk (MB), and runtime (s) — the hidden 4-tuple of Section II-B.
type Task struct {
	ID          int
	Category    string
	Consumption resources.Vector
}

// Runtime returns the task's execution duration t in seconds.
func (t Task) Runtime() float64 { return t.Consumption.Get(resources.Time) }

// Peak returns the task's peak consumption with the time dimension zeroed,
// i.e. the (c, m, d) triple the waste metrics integrate over the runtime.
func (t Task) Peak() resources.Vector {
	return t.Consumption.With(resources.Time, t.Runtime())
}

// Workflow is a generated workload: tasks in submission order plus the phase
// barriers that reproduce the application's structure (e.g. ColmenaXTB only
// submits compute_atomization_energy tasks after every evaluate_mpnn task
// has returned).
type Workflow struct {
	Name  string
	Tasks []Task
	// Barriers lists ascending task indices b such that tasks at index >= b
	// may only start after every task at index < b has completed.
	Barriers []int
	// SubmitWindow models runtime task generation: at most
	// completed + SubmitWindow tasks have been submitted at any instant, so
	// a task is only dispatchable once enough earlier tasks have finished.
	// Zero means every task is submitted up front (Coffea-style); Colmena's
	// steering loop submits work in response to results and uses a small
	// window.
	SubmitWindow int
}

// Len returns the number of tasks.
func (w *Workflow) Len() int { return len(w.Tasks) }

// Categories returns the distinct task categories in first-appearance order.
func (w *Workflow) Categories() []string {
	seen := make(map[string]bool)
	var out []string
	for _, t := range w.Tasks {
		if !seen[t.Category] {
			seen[t.Category] = true
			out = append(out, t.Category)
		}
	}
	return out
}

// CategoryCounts returns the number of tasks per category.
func (w *Workflow) CategoryCounts() map[string]int {
	out := make(map[string]int)
	for _, t := range w.Tasks {
		out[t.Category]++
	}
	return out
}

// PhaseOf returns the phase index (0-based) the given task index belongs to,
// according to the barrier list.
func (w *Workflow) PhaseOf(index int) int {
	return sort.SearchInts(w.Barriers, index+1)
}

// Validate checks structural invariants: 1-based contiguous IDs, positive
// runtimes, non-negative consumptions, ascending in-range barriers, and
// feasibility on the given worker shape.
func (w *Workflow) Validate(worker resources.Vector) error {
	for i, t := range w.Tasks {
		if t.ID != i+1 {
			return fmt.Errorf("workflow %s: task %d has ID %d, want %d", w.Name, i, t.ID, i+1)
		}
		if t.Runtime() <= 0 {
			return fmt.Errorf("workflow %s: task %d has non-positive runtime", w.Name, t.ID)
		}
		if !t.Consumption.NonNegative() {
			return fmt.Errorf("workflow %s: task %d has negative consumption", w.Name, t.ID)
		}
		if !t.Peak().With(resources.Time, 0).FitsWithin(worker) {
			return fmt.Errorf("workflow %s: task %d consumption %v exceeds worker %v",
				w.Name, t.ID, t.Consumption, worker)
		}
		if t.Category == "" {
			return fmt.Errorf("workflow %s: task %d has empty category", w.Name, t.ID)
		}
	}
	prev := 0
	for _, b := range w.Barriers {
		if b <= prev || b >= len(w.Tasks) {
			return fmt.Errorf("workflow %s: invalid barrier %d", w.Name, b)
		}
		prev = b
	}
	return nil
}

// Names returns the seven evaluation workload names in the order the
// paper's figures present them.
func Names() []string {
	return []string{"normal", "uniform", "exponential", "bimodal", "trimodal", "colmena", "topeft"}
}

// SyntheticNames returns the five synthetic workload names.
func SyntheticNames() []string {
	return []string{"normal", "uniform", "exponential", "bimodal", "trimodal"}
}

// Parse validates a workload name against Names(), following the shared
// Names()/Parse() registry contract: the returned error wraps
// ErrUnknownWorkflow and lists the valid names.
func Parse(name string) (string, error) {
	return names.Parse(name, Names(), func(s string) string { return s }, ErrUnknownWorkflow)
}

// unknownWorkflowError builds the registry miss error for name.
func unknownWorkflowError(name string) error {
	_, err := Parse(name)
	return err
}

// ByName generates any of the seven evaluation workloads. n is the task
// count for the synthetic workflows (0 means the paper's 1000); the
// production workloads have fixed task counts from the paper. For
// workloads too large to hold in memory, SourceByName returns the same
// task streams lazily.
func ByName(name string, n int, seed uint64) (*Workflow, error) {
	switch name {
	case "normal", "uniform", "exponential", "bimodal", "trimodal":
		return Synthetic(name, n, seed)
	case "colmena":
		return ColmenaXTB(seed), nil
	case "topeft":
		return TopEFT(seed), nil
	default:
		return nil, unknownWorkflowError(name)
	}
}
