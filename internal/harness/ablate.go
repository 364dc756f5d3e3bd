package harness

import (
	"context"
	"fmt"

	"dynalloc/internal/allocator"
	"dynalloc/internal/opportunistic"
	"dynalloc/internal/report"
	"dynalloc/internal/resources"
	"dynalloc/internal/sim"
	"dynalloc/internal/workflow"
)

// The ablation suite quantifies the design choices DESIGN.md calls out:
// the task consumption profile, the exploratory-mode threshold, the bucket
// cap, per-category isolation, significance weighting, and placement
// robustness. Each returns a rendered table, which dynalloc ablate prints.

func ablationRow(ctx context.Context, w *workflow.Workflow, pol allocator.Policy, model sim.ConsumptionModel) (awe float64, retries int, err error) {
	res, err := sim.RunSequentialContext(ctx, w, pol, model, 0)
	if err != nil {
		return 0, 0, err
	}
	return res.Acc.AWE(resources.Memory), res.Acc.Retries(), nil
}

// AblateConsumptionModel sweeps the consumption profiles on one workload
// with Exhaustive Bucketing.
func AblateConsumptionModel(ctx context.Context, seed uint64, workloadName string, tasks int) (*report.Table, error) {
	w, err := workflow.ByName(workloadName, tasks, seed)
	if err != nil {
		return nil, err
	}
	tab := report.New(
		fmt.Sprintf("Ablation — consumption model (%s, exhaustive-bucketing)", workloadName),
		"model", "memory AWE", "retries")
	for _, m := range sim.Models() {
		pol := allocator.MustNew(allocator.Exhaustive, allocator.Config{Seed: seed})
		awe, retries, err := ablationRow(ctx, w, pol, m)
		if err != nil {
			return nil, err
		}
		tab.AddRow(m.String(), report.Percent(awe), retries)
	}
	return tab, nil
}

// AblateExploration sweeps the exploratory-mode record threshold.
func AblateExploration(ctx context.Context, seed uint64, workloadName string, tasks int, counts []int) (*report.Table, error) {
	if len(counts) == 0 {
		counts = []int{1, 5, 10, 25, 50}
	}
	w, err := workflow.ByName(workloadName, tasks, seed)
	if err != nil {
		return nil, err
	}
	tab := report.New(
		fmt.Sprintf("Ablation — exploration threshold (%s, exhaustive-bucketing; paper uses 10)", workloadName),
		"records", "memory AWE", "retries")
	for _, c := range counts {
		pol := allocator.MustNew(allocator.Exhaustive, allocator.Config{Seed: seed, ExploreCount: c})
		awe, retries, err := ablationRow(ctx, w, pol, sim.RampEarly)
		if err != nil {
			return nil, err
		}
		tab.AddRow(c, report.Percent(awe), retries)
	}
	return tab, nil
}

// AblateMaxBuckets sweeps Exhaustive Bucketing's bucket cap.
func AblateMaxBuckets(ctx context.Context, seed uint64, workloadName string, tasks int, caps []int) (*report.Table, error) {
	if len(caps) == 0 {
		caps = []int{1, 2, 3, 5, 10, 20}
	}
	w, err := workflow.ByName(workloadName, tasks, seed)
	if err != nil {
		return nil, err
	}
	tab := report.New(
		fmt.Sprintf("Ablation — MaxBuckets cap (%s, exhaustive-bucketing; paper uses 10)", workloadName),
		"cap", "memory AWE", "retries")
	for _, c := range caps {
		pol := allocator.MustNew(allocator.Exhaustive, allocator.Config{Seed: seed, MaxBuckets: c})
		awe, retries, err := ablationRow(ctx, w, pol, sim.RampEarly)
		if err != nil {
			return nil, err
		}
		tab.AddRow(c, report.Percent(awe), retries)
	}
	return tab, nil
}

// AblateCategoryIsolation compares per-category estimator states against a
// single pooled state on the multi-category ColmenaXTB workload
// (Section III-B).
func AblateCategoryIsolation(ctx context.Context, seed uint64) (*report.Table, error) {
	w := workflow.ColmenaXTB(seed)
	tab := report.New(
		"Ablation — category isolation (colmena, exhaustive-bucketing)",
		"mode", "memory AWE", "retries")
	for _, blind := range []bool{false, true} {
		mode := "per-category"
		if blind {
			mode = "category-blind"
		}
		pol := allocator.MustNew(allocator.Exhaustive, allocator.Config{Seed: seed, IgnoreCategories: blind})
		awe, retries, err := ablationRow(ctx, w, pol, sim.RampEarly)
		if err != nil {
			return nil, err
		}
		tab.AddRow(mode, report.Percent(awe), retries)
	}
	return tab, nil
}

// AblateSignificance compares the paper's task-ID recency weighting against
// flat significance on a phasing workload (Section IV-A).
func AblateSignificance(ctx context.Context, seed uint64, workloadName string, tasks int) (*report.Table, error) {
	w, err := workflow.ByName(workloadName, tasks, seed)
	if err != nil {
		return nil, err
	}
	tab := report.New(
		fmt.Sprintf("Ablation — significance weighting (%s, greedy-bucketing)", workloadName),
		"weighting", "memory AWE", "retries")
	for _, flat := range []bool{false, true} {
		mode := "task-id (recency)"
		if flat {
			mode = "flat"
		}
		pol := allocator.MustNew(allocator.Greedy, allocator.Config{Seed: seed, FlatSignificance: flat})
		awe, retries, err := ablationRow(ctx, w, pol, sim.RampEarly)
		if err != nil {
			return nil, err
		}
		tab.AddRow(mode, report.Percent(awe), retries)
	}
	return tab, nil
}

// AblatePlacement runs the discrete-event simulation across placement
// policies, verifying the allocator's efficiency is robust to
// scheduling-order stochasticity (Section II-D1).
func AblatePlacement(ctx context.Context, seed uint64, workloadName string, tasks int) (*report.Table, error) {
	w, err := workflow.ByName(workloadName, tasks, seed)
	if err != nil {
		return nil, err
	}
	tab := report.New(
		fmt.Sprintf("Ablation — placement policy (%s, exhaustive-bucketing, 10 static workers)", workloadName),
		"placement", "memory AWE", "retries", "makespan")
	for _, p := range sim.Placements() {
		if p == sim.Locality {
			continue // needs the data layer; covered by the data tests
		}
		pol := allocator.MustNew(allocator.Exhaustive, allocator.Config{Seed: seed})
		res, err := sim.RunContext(ctx, sim.Config{
			Workflow: w,
			Policy:   pol,
			Pool:     opportunistic.Static{N: 10},
			Place:    p,
		})
		if err != nil {
			return nil, err
		}
		tab.AddRow(p.String(), report.Percent(res.Acc.AWE(resources.Memory)),
			res.Acc.Retries(), fmt.Sprintf("%.0fs", res.Makespan))
	}
	return tab, nil
}

// An Ablation is one named sweep of the design-choice suite.
type Ablation struct {
	Name string
	Run  func(ctx context.Context) (*report.Table, error)
}

// AblationSuite returns the full suite in its canonical order, bound to a
// seed and synthetic task count. The workload choices per ablation match
// dynalloc ablate and EXPERIMENTS.md.
func AblationSuite(seed uint64, tasks int) []Ablation {
	return []Ablation{
		{"model", func(ctx context.Context) (*report.Table, error) {
			return AblateConsumptionModel(ctx, seed, "normal", tasks)
		}},
		{"exploration", func(ctx context.Context) (*report.Table, error) {
			return AblateExploration(ctx, seed, "bimodal", tasks, nil)
		}},
		{"buckets", func(ctx context.Context) (*report.Table, error) {
			return AblateMaxBuckets(ctx, seed, "trimodal", tasks, nil)
		}},
		{"category", func(ctx context.Context) (*report.Table, error) {
			return AblateCategoryIsolation(ctx, seed)
		}},
		{"significance", func(ctx context.Context) (*report.Table, error) {
			return AblateSignificance(ctx, seed, "trimodal", tasks)
		}},
		{"placement", func(ctx context.Context) (*report.Table, error) {
			return AblatePlacement(ctx, seed, "bimodal", tasks)
		}},
	}
}

// RunAblations runs the given ablations across parallelism worker
// goroutines (0 = GOMAXPROCS) and returns their tables in input order. The
// first failure — or ctx cancellation, reported wrapping sim.ErrCanceled —
// cancels the remaining sweeps.
func RunAblations(ctx context.Context, ablations []Ablation, parallelism int) ([]*report.Table, error) {
	tables := make([]*report.Table, len(ablations))
	err := RunIndexed(ctx, len(ablations), parallelism, func(ctx context.Context, i int) error {
		tab, err := ablations[i].Run(ctx)
		if err != nil {
			return fmt.Errorf("harness: ablation %s: %w", ablations[i].Name, err)
		}
		tables[i] = tab
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tables, nil
}
