// Package dynalloc is a from-scratch Go reproduction of "Adaptive
// Task-Oriented Resource Allocation for Large Dynamic Workflows on
// Opportunistic Resources" (Phung & Thain, IPDPS 2024).
//
// The paper's contribution — the Greedy Bucketing and Exhaustive Bucketing
// online resource-allocation algorithms — lives in internal/core; this root
// package is the curated public API over the whole system:
//
//   - build any of the paper's seven allocation algorithms (NewAllocator),
//   - generate the seven evaluation workloads (GenerateWorkflow),
//   - execute workloads against an allocator on a simulated opportunistic
//     pool (Simulate) or on one unbounded worker (SimulateSequential),
//   - measure efficiency and waste with the paper's metrics (Result,
//     Summary),
//   - and reproduce every figure and table of the evaluation (the
//     harness-backed Reproduce* functions and cmd/dynalloc figures).
//
// # Quick start
//
//	w, _ := dynalloc.GenerateWorkflow("topeft", 0, 42)
//	alloc, _ := dynalloc.NewAllocator(dynalloc.ExhaustiveBucketing, dynalloc.AllocatorConfig{Seed: 1})
//	res, _ := dynalloc.Simulate(dynalloc.SimConfig{Workflow: w, Policy: alloc})
//	fmt.Printf("memory efficiency: %.1f%%\n", 100*res.Acc.AWE(dynalloc.Memory))
//
// See examples/ for runnable programs and DESIGN.md for the system
// inventory and the per-experiment index.
package dynalloc
