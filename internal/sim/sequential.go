package sim

import (
	"context"
	"fmt"

	"dynalloc/internal/allocator"
	"dynalloc/internal/opportunistic"
	"dynalloc/internal/resources"
	"dynalloc/internal/workflow"
)

// RunSequential evaluates a policy on a workflow with no opportunistic pool:
// the DES on one unbounded worker with a submit window of 1. Tasks execute
// one at a time in submission order, each retried until it succeeds (a task
// exhausted more than maxAttempts times fails the run; zero means
// DefaultMaxAttempts), and every completion feeds the policy before the next
// task is allocated. Because the AWE metric is independent of the worker pool
// (Section II-C), this configuration produces efficiency and waste numbers of
// the same nature as a run on an opportunistic pool, with completion order
// equal to submission order, at a fraction of the cost. The figures and
// parameter sweeps use it.
func RunSequential(w *workflow.Workflow, policy allocator.Policy, model ConsumptionModel, maxAttempts int) (*Result, error) {
	return RunSequentialContext(context.Background(), w, policy, model, maxAttempts)
}

// RunSequentialContext is RunSequential under a context: the run aborts with
// an error wrapping ErrCanceled once the context is done.
func RunSequentialContext(ctx context.Context, w *workflow.Workflow, policy allocator.Policy, model ConsumptionModel, maxAttempts int) (*Result, error) {
	if w == nil || policy == nil {
		return nil, fmt.Errorf("sim: workflow and policy are required")
	}
	res, err := RunContext(ctx, Config{
		Source:      workflow.WithSubmitWindow(w.Stream(), 1),
		Policy:      policy,
		Pool:        opportunistic.Static{N: 1},
		WorkerShape: resources.New(resources.Unlimited, resources.Unlimited, resources.Unlimited, resources.Unlimited),
		Model:       model,
		MaxAttempts: max(maxAttempts, 0),
	})
	if err != nil {
		return nil, err
	}
	// No pool ran, so there is no arrival schedule to record or replay.
	res.Arrivals = nil
	return res, nil
}
