package sim

import (
	"context"
	"fmt"

	"dynalloc/internal/allocator"
	"dynalloc/internal/resources"
	"dynalloc/internal/sched"
	"dynalloc/internal/workflow"
)

// RunSequential evaluates a policy on a workflow without a worker pool:
// tasks execute one at a time in submission order, each retried until it
// succeeds (a task exhausted more than maxAttempts times fails the run; zero
// means DefaultMaxAttempts), and every completion feeds the policy before the
// next task is allocated. Because the AWE metric is independent of the worker
// pool (Section II-C), this fast path produces efficiency and waste numbers of
// the same nature as the full simulation — with completion order equal to
// submission order — at a fraction of the cost. Benchmarks and parameter
// sweeps use it; the discrete-event Run exercises realistic interleavings.
func RunSequential(w *workflow.Workflow, policy allocator.Policy, model ConsumptionModel, maxAttempts int) (*Result, error) {
	return RunSequentialContext(context.Background(), w, policy, model, maxAttempts)
}

// RunSequentialContext is RunSequential under a context: the driver checks
// ctx between tasks and aborts with an error wrapping ErrCanceled once the
// context is done.
func RunSequentialContext(ctx context.Context, w *workflow.Workflow, policy allocator.Policy, model ConsumptionModel, maxAttempts int) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if w == nil || policy == nil {
		return nil, fmt.Errorf("sim: workflow and policy are required")
	}
	if maxAttempts <= 0 {
		maxAttempts = DefaultMaxAttempts
	}
	res := &Result{PeakWorkers: 1}
	clock := 0.0
	for i, t := range w.Tasks {
		if i%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("%w after %d/%d tasks: %w", ErrCanceled, i, len(w.Tasks), err)
			}
		}
		st := sched.NewTask(t.ID, t.Category, t.Consumption, t.Runtime(), clock)
		st.RunAlone(policy, maxAttempts, func(alloc resources.Vector) (float64, []resources.Kind) {
			duration, exceeded := EvaluateAttempt(model, t.Consumption, t.Runtime(), alloc)
			clock += duration
			return duration, exceeded
		})
		if st.Failed() {
			return nil, fmt.Errorf("sim: task %d exceeded %d attempts under %s",
				t.ID, maxAttempts, policy.Name())
		}
		st.Outcome.DoneTime = clock
		res.Outcomes = append(res.Outcomes, st.Outcome)
		res.Acc.Add(st.Outcome)
	}
	res.Makespan = clock
	return res, nil
}
