package dynalloc

import (
	"context"

	"dynalloc/internal/allocator"
	"dynalloc/internal/condor"
	"dynalloc/internal/flow"
	"dynalloc/internal/harness"
	"dynalloc/internal/metrics"
	"dynalloc/internal/opportunistic"
	"dynalloc/internal/report"
	"dynalloc/internal/resources"
	"dynalloc/internal/sim"
	"dynalloc/internal/vine"
	"dynalloc/internal/workflow"
)

// Resource model.
type (
	// Kind identifies a resource dimension (cores, memory, disk, time).
	Kind = resources.Kind
	// Vector holds one value per resource kind.
	Vector = resources.Vector
)

// Resource kinds.
const (
	Cores  = resources.Cores
	Memory = resources.Memory
	Disk   = resources.Disk
	Time   = resources.Time
)

// NewVector builds a resource vector from cores, memory (MB), disk (MB) and
// time (s).
func NewVector(cores, memoryMB, diskMB, timeS float64) Vector {
	return resources.New(cores, memoryMB, diskMB, timeS)
}

// PaperWorker returns the evaluation worker shape: 16 cores, 64 GB memory,
// 64 GB disk.
func PaperWorker() Vector { return resources.PaperWorker() }

// Allocation algorithms.
type (
	// AlgorithmName identifies one of the seven allocation algorithms.
	AlgorithmName = allocator.Name
	// AllocatorConfig tunes an Allocator.
	AllocatorConfig = allocator.Config
	// Allocator is the adaptive multi-resource, per-category allocator.
	Allocator = allocator.Allocator
	// Policy is the scheduler-facing allocation interface.
	Policy = allocator.Policy
)

// The seven algorithms of the paper's evaluation.
const (
	WholeMachine        = allocator.WholeMachine
	MaxSeen             = allocator.MaxSeen
	MinWaste            = allocator.MinWaste
	MaxThroughput       = allocator.MaxThroughput
	QuantizedBucketing  = allocator.Quantized
	GreedyBucketing     = allocator.Greedy
	ExhaustiveBucketing = allocator.Exhaustive
)

// AlgorithmNames returns all algorithm names in the paper's order.
func AlgorithmNames() []AlgorithmName { return allocator.Names() }

// NewAllocator builds an allocator running the named algorithm.
func NewAllocator(alg AlgorithmName, cfg AllocatorConfig) (*Allocator, error) {
	return allocator.New(alg, cfg)
}

// Workloads.
type (
	// Workflow is a generated workload.
	Workflow = workflow.Workflow
	// Task is one unit of work with its hidden consumption 4-tuple.
	Task = workflow.Task
	// Source streams a workload's tasks lazily; a *Workflow is one concrete
	// Source (via its Stream method), and the named generators are another.
	Source = workflow.Source
)

// WorkflowNames returns the seven evaluation workload names.
func WorkflowNames() []string { return workflow.Names() }

// GenerateWorkflow builds any of the seven evaluation workloads; n scales
// the synthetic families (0 = the paper's 1000 tasks).
//
// The returned slice-backed Workflow holds every task in memory, which the
// perturbation, oracle, and data layers need. For workloads too large for
// that — million-task runs — prefer GenerateWorkflowSource and drive the
// simulation through SimConfig.Source.
func GenerateWorkflow(name string, n int, seed uint64) (*Workflow, error) {
	return workflow.ByName(name, n, seed)
}

// GenerateWorkflowSource returns the same task stream GenerateWorkflow
// materializes, as a lazy Source: tasks are sampled on demand, so a
// million-task run never holds more than the in-flight window. Set it as
// SimConfig.Source (instead of SimConfig.Workflow) and pair it with
// OnOutcome or DiscardOutcomes to keep the whole run's footprint bounded.
func GenerateWorkflowSource(name string, n int, seed uint64) (Source, error) {
	return workflow.SourceByName(name, n, seed)
}

// WithSubmitWindow caps how many tasks beyond the completed count a Source
// releases to the simulator — the knob that bounds a streaming run's
// working set (0 removes the workload's own cap).
func WithSubmitWindow(src Source, window int) Source {
	return workflow.WithSubmitWindow(src, window)
}

// Simulation.
type (
	// SimConfig configures a discrete-event simulation run.
	SimConfig = sim.Config
	// Result is a run's outcomes plus aggregated metrics.
	Result = sim.Result
	// ConsumptionModel selects the task usage-over-time profile.
	ConsumptionModel = sim.ConsumptionModel
	// PoolModel generates opportunistic worker arrival schedules.
	PoolModel = opportunistic.Model
	// Summary is a flat snapshot of a run's metrics.
	Summary = metrics.Summary
	// TaskOutcome is one task's attempts, waste, and consumption.
	TaskOutcome = metrics.TaskOutcome
	// CategoryMetrics accumulates per-category statistics from streamed
	// outcomes: exact running aggregates plus bounded reservoir samples of
	// memory peaks and runtimes. Pass one as SimConfig.Categories.
	CategoryMetrics = metrics.ByCategory
	// Reservoir is a fixed-capacity uniform sample over an unbounded stream.
	Reservoir = metrics.Reservoir
)

// NewCategoryMetrics builds a per-category streaming accumulator whose
// reservoirs hold at most reservoirCap samples each (0 disables sampling);
// seed fixes the sampling decisions.
func NewCategoryMetrics(reservoirCap int, seed uint64) *CategoryMetrics {
	return metrics.NewByCategory(reservoirCap, seed)
}

// Consumption models.
const (
	RampEarly     = sim.RampEarly
	RampLinear    = sim.RampLinear
	PeakAtEnd     = sim.PeakAtEnd
	PeakImmediate = sim.PeakImmediate
)

// Sentinel errors. Match them with errors.Is; every error carrying one of
// these conditions wraps the corresponding sentinel.
var (
	// ErrUnknownAlgorithm reports an algorithm name that matches no known
	// allocation algorithm.
	ErrUnknownAlgorithm = allocator.ErrUnknownAlgorithm
	// ErrUnknownWorkflow reports a workload name that matches no evaluation
	// workload.
	ErrUnknownWorkflow = workflow.ErrUnknownWorkflow
	// ErrUnknownPlacement reports a placement-policy name that matches no
	// known policy.
	ErrUnknownPlacement = sim.ErrUnknownPlacement
	// ErrCanceled reports a simulation or experiment sweep aborted by its
	// context; the context's own error is wrapped alongside it.
	ErrCanceled = sim.ErrCanceled
)

// Simulate runs the discrete-event simulation: dispatch, placement,
// enforcement, retries, and opportunistic worker churn.
//
// The workload comes from exactly one of SimConfig.Workflow (a materialized
// task slice) or SimConfig.Source (a lazy stream). With a Source, set
// OnOutcome to receive each task's outcome as it finishes — or
// DiscardOutcomes to fold results into the accumulator only — and
// Result.Outcomes stays nil, so memory tracks the submit window rather
// than the task count.
func Simulate(cfg SimConfig) (*Result, error) { return sim.Run(cfg) }

// SimulateContext is Simulate under a context: the event loop checks ctx
// at event boundaries and aborts with an error wrapping ErrCanceled once
// the context is done.
func SimulateContext(ctx context.Context, cfg SimConfig) (*Result, error) {
	return sim.RunContext(ctx, cfg)
}

// SimulateSequential runs the sequential driver, the simulator on one
// unbounded worker with a submit window of 1: tasks execute one at a time in
// submission order with the same allocation semantics. AWE is
// pool-independent, so this answers the paper's efficiency questions
// quickly.
func SimulateSequential(w *Workflow, p Policy, model ConsumptionModel) (*Result, error) {
	return sim.RunSequential(w, p, model, 0)
}

// SimulateSequentialContext is SimulateSequential under a context.
func SimulateSequentialContext(ctx context.Context, w *Workflow, p Policy, model ConsumptionModel) (*Result, error) {
	return sim.RunSequentialContext(ctx, w, p, model, 0)
}

// NewOracle returns the unrealizable optimal policy (allocation equals
// consumption) for a workload; it bounds every real algorithm.
func NewOracle(w *Workflow) Policy { return sim.NewOracle(w) }

// Opportunistic pools.

// StaticPool provisions n permanent workers at time zero.
func StaticPool(n int) PoolModel { return opportunistic.Static{N: n} }

// BackfillPool ramps from min to max workers, one roughly every interval
// seconds — the paper's 20-to-50-worker HTCondor pool shape.
func BackfillPool(min, max int, interval float64) PoolModel {
	return opportunistic.Backfill{Min: min, Max: max, Interval: interval}
}

// ChurnPool models a volatile pool with lease-bounded workers and
// replacement arrivals.
func ChurnPool(initial int, meanLifetime, meanInterval, horizon float64) PoolModel {
	return opportunistic.Churn{
		Initial:       initial,
		MeanLifetime:  meanLifetime,
		MeanInterval:  meanInterval,
		Horizon:       horizon,
		KeepLastAlive: true,
	}
}

// CondorPool simulates an HTCondor-style batch cluster: pilot jobs are
// backfilled into slots left idle by a stream of primary jobs and preempted
// when primaries return — the worker-deployment mechanism the paper's
// evaluation used.
func CondorPool(slots int, primaryLoad float64, pilotTarget int) PoolModel {
	c := condor.DefaultCluster()
	c.Slots = slots
	c.PrimaryLoad = primaryLoad
	c.PilotTarget = pilotTarget
	return c
}

// ExtendedAlgorithmNames returns the paper's seven algorithms plus this
// repository's extensions (k-means bucketing from the paper's reference
// [11], and a fixed-percentile heuristic).
func ExtendedAlgorithmNames() []AlgorithmName { return allocator.ExtendedNames() }

// Application and data layers.
type (
	// Flow is the dynamic-application layer: submit tasks at runtime as
	// futures and steer on their results.
	Flow = flow.Flow
	// Future is the handle to a submitted task.
	Future = flow.Future
	// Executor runs tasks for a Flow (LocalPolicyExecutor, or a live
	// wq.Manager).
	Executor = flow.Executor
	// DataLayer models TaskVine-style file staging and worker caches.
	DataLayer = vine.Layer
	// Placement selects how tasks are placed onto workers.
	Placement = sim.Placement
	// Perturbation rescales, jitters, and reorders a workflow between runs
	// (the paper's "evolution of workflows").
	Perturbation = workflow.Perturbation
)

// Placement policies.
const (
	PlaceFirstFit = sim.FirstFit
	PlaceWorstFit = sim.WorstFit
	PlaceBestFit  = sim.BestFit
	PlaceLocality = sim.Locality
)

// NewFlow creates a dynamic-application flow over an executor.
func NewFlow(exec Executor) *Flow { return flow.New(exec) }

// NewLocalExecutor returns an executor that runs tasks instantly under a
// policy with the simulator's virtual resource monitor.
func NewLocalExecutor(p Policy, model ConsumptionModel) Executor {
	return &flow.LocalExecutor{Policy: p, Model: model}
}

// NewDataLayer creates an empty data layer; AttachData populates it with a
// synthetic file layout (shared per-category environments plus per-task
// data) for a workload.
func NewDataLayer() *DataLayer { return vine.NewLayer() }

// AttachData populates a data layer for a workload.
func AttachData(l *DataLayer, w *Workflow, seed uint64) { vine.Attach(l, w, seed) }

// PerturbWorkflow returns a perturbed copy of a workflow.
func PerturbWorkflow(w *Workflow, p Perturbation, seed uint64) *Workflow {
	return workflow.Perturb(w, p, seed)
}

// Experiment reproduction.
type (
	// ExperimentOptions configure a figure/table reproduction run.
	ExperimentOptions = harness.Options
	// ExperimentProgress reports one completed grid cell to the
	// ExperimentOptions.Progress callback.
	ExperimentProgress = harness.Progress
	// ExperimentCell is one (workload, algorithm) result.
	ExperimentCell = harness.Cell
	// ReportTable is a renderable result table.
	ReportTable = report.Table
)

// ReproduceGrid runs the (workload x algorithm) grid behind Figures 5 and 6.
func ReproduceGrid(opts ExperimentOptions) ([]ExperimentCell, error) {
	return harness.RunGrid(opts)
}

// ReproduceGridContext runs the grid across opts.Parallelism worker
// goroutines under a context. Cells are returned in workload-major order
// and are byte-for-byte identical to a sequential run at any parallelism;
// cancellation aborts in-flight simulations promptly with an error
// wrapping ErrCanceled.
func ReproduceGridContext(ctx context.Context, opts ExperimentOptions) ([]ExperimentCell, error) {
	return harness.RunGridContext(ctx, opts)
}

// Figure5 renders the Absolute Workflow Efficiency tables from grid cells.
func Figure5(cells []ExperimentCell, opts ExperimentOptions) []*ReportTable {
	return harness.Fig5Tables(cells, opts)
}

// Figure6 renders the waste-decomposition tables from grid cells.
func Figure6(cells []ExperimentCell, opts ExperimentOptions) []*ReportTable {
	return harness.Fig6Tables(cells, opts)
}

// TableI measures the bucketing-state computation cost at growing record
// counts and renders the paper's Table I.
func TableI(seed uint64, reps int) *ReportTable {
	return harness.Table1Report(harness.Table1(seed, reps))
}

// TableIContext is TableI under a context, checked between timing cells.
func TableIContext(ctx context.Context, seed uint64, reps int) (*ReportTable, error) {
	rows, err := harness.Table1Context(ctx, seed, reps)
	if err != nil {
		return nil, err
	}
	return harness.Table1Report(rows), nil
}
