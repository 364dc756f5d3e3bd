package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"dynalloc/internal/allocator"
	"dynalloc/internal/sim"
	"dynalloc/internal/workflow"
)

// fingerprint renders every deterministic field of a cell — everything but
// the wall-clock Elapsed — so grids can be compared byte for byte.
func fingerprint(cells []Cell) string {
	var b strings.Builder
	for _, c := range cells {
		fmt.Fprintf(&b, "%s/%s makespan=%.9g summary=%#v\n",
			c.Workload, c.Algorithm, c.Makespan, c.Summary)
	}
	return b.String()
}

// TestRunGridDeterministicAcrossParallelism is the harness's core
// guarantee: the full 7x7 grid produces byte-identical cell summaries at
// parallelism 1, 4, and GOMAXPROCS, because per-cell seeds derive from
// grid position rather than completion order.
func TestRunGridDeterministicAcrossParallelism(t *testing.T) {
	opts := Options{Seed: 42, Tasks: 120}
	if testing.Short() {
		opts.Workloads = []string{"normal", "bimodal", "colmena"}
	}
	levels := []int{1, 4, runtime.GOMAXPROCS(0)}
	var want string
	seen := map[int]bool{}
	for _, p := range levels {
		if seen[p] {
			continue
		}
		seen[p] = true
		opts.Parallelism = p
		cells, err := RunGridContext(context.Background(), opts)
		if err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		got := fingerprint(cells)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Errorf("parallelism %d produced different cells than parallelism %d", p, levels[0])
		}
	}
}

// TestRunGridMatchesHistoricalSequential pins the seed derivation: the
// parallel engine must reproduce what the original sequential loop (seed =
// opts.Seed XOR running cell count + 1) computed.
func TestRunGridMatchesHistoricalSequential(t *testing.T) {
	opts := Options{Seed: 7, Tasks: 50,
		Workloads:  []string{"normal", "uniform"},
		Algorithms: []allocator.Name{allocator.MaxSeen, allocator.Greedy, allocator.Exhaustive}}
	sequential := func() []Cell {
		o := opts.withDefaults()
		var cells []Cell
		for _, wfName := range o.Workloads {
			w, err := workflow.ByName(wfName, o.Tasks, o.Seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, alg := range o.Algorithms {
				pol, err := allocator.New(alg, allocator.Config{Seed: o.Seed ^ uint64(len(cells)+1)})
				if err != nil {
					t.Fatal(err)
				}
				res, err := sim.RunSequential(w, pol, o.Model, 0)
				if err != nil {
					t.Fatal(err)
				}
				cells = append(cells, Cell{Workload: wfName, Algorithm: alg,
					Summary: res.Summary(), Makespan: res.Makespan})
			}
		}
		return cells
	}
	opts.Parallelism = 4
	got, err := RunGridContext(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(got) != fingerprint(sequential()) {
		t.Error("parallel grid diverged from the historical sequential engine")
	}
}

func TestRunGridContextCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := 0
	_, err := RunGridContext(ctx, Options{Tasks: 20, Workloads: []string{"normal"},
		Progress: func(Progress) { ran++ }})
	if !errors.Is(err, sim.ErrCanceled) {
		t.Errorf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, should also wrap context.Canceled", err)
	}
	if ran != 0 {
		t.Errorf("%d cells ran under a pre-canceled context", ran)
	}
}

// TestRunGridCancellationStopsRemainingCells cancels from the first
// progress callback: with a sequential worker the remaining six cells must
// never run.
func TestRunGridCancellationStopsRemainingCells(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ran := 0
	opts := Options{Seed: 1, Tasks: 20, Workloads: []string{"normal"}, Parallelism: 1,
		Progress: func(Progress) {
			ran++
			cancel()
		}}
	_, err := RunGridContext(ctx, opts)
	if !errors.Is(err, sim.ErrCanceled) {
		t.Errorf("err = %v, want ErrCanceled", err)
	}
	if ran != 1 {
		t.Errorf("%d cells completed after cancellation, want 1", ran)
	}
}

func TestRunGridFirstErrorPropagates(t *testing.T) {
	// An unknown algorithm fails inside a cell; the real error must win
	// over the cancellation noise of sibling workers.
	opts := Options{Seed: 1, Tasks: 20, Workloads: []string{"normal", "uniform"},
		Algorithms:  []allocator.Name{allocator.MaxSeen, "bogus"},
		Parallelism: 4}
	_, err := RunGridContext(context.Background(), opts)
	if !errors.Is(err, allocator.ErrUnknownAlgorithm) {
		t.Errorf("err = %v, want ErrUnknownAlgorithm", err)
	}
	if errors.Is(err, sim.ErrCanceled) {
		t.Errorf("real failure reported as cancellation: %v", err)
	}
}

func TestRunGridProgressMonotone(t *testing.T) {
	var events []Progress
	opts := Options{Seed: 2, Tasks: 20, Workloads: []string{"normal", "bimodal"},
		Algorithms:  []allocator.Name{allocator.MaxSeen, allocator.Greedy},
		Parallelism: 4,
		Progress:    func(p Progress) { events = append(events, p) }}
	if _, err := RunGridContext(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	if len(events) != 4 {
		t.Fatalf("%d progress events, want 4", len(events))
	}
	for i, p := range events {
		if p.Done != i+1 || p.Total != 4 {
			t.Errorf("event %d = %d/%d, want %d/4", i, p.Done, p.Total, i+1)
		}
		if p.Cell.Workload == "" {
			t.Errorf("event %d carries no cell", i)
		}
	}
}

func TestRunGridReplicatedContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunGridReplicatedContext(ctx, Options{Tasks: 20, Workloads: []string{"normal"}}, 2)
	if !errors.Is(err, sim.ErrCanceled) {
		t.Errorf("err = %v, want ErrCanceled", err)
	}
}

func TestRunAblationsParallel(t *testing.T) {
	suite := AblationSuite(1, 40)
	tables, err := RunAblations(context.Background(), suite, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != len(suite) {
		t.Fatalf("%d tables, want %d", len(tables), len(suite))
	}
	for i, tab := range tables {
		if tab == nil || len(tab.Rows) == 0 {
			t.Errorf("ablation %s produced no rows", suite[i].Name)
		}
	}
	// Input order is preserved regardless of completion order.
	if !strings.Contains(tables[0].Title, "consumption model") {
		t.Errorf("table order not preserved: first title %q", tables[0].Title)
	}
}

func TestRunAblationsCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunAblations(ctx, AblationSuite(1, 40), 2); !errors.Is(err, sim.ErrCanceled) {
		t.Errorf("err = %v, want ErrCanceled", err)
	}
}

func TestTable1ContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Table1Context(ctx, 1, 1); !errors.Is(err, sim.ErrCanceled) {
		t.Errorf("err = %v, want ErrCanceled", err)
	}
}

// BenchmarkRunGrid measures the sequential-driver grid at several
// parallelism levels; on a multi-core machine -j 4 should be at least 2x
// faster than -j 1 (cells are embarrassingly parallel and share nothing
// but read-only workflows).
func BenchmarkRunGrid(b *testing.B) {
	for _, j := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("j=%d", j), func(b *testing.B) {
			opts := Options{Seed: 42, Tasks: 200,
				Workloads: workflow.SyntheticNames(), Parallelism: j}
			for i := 0; i < b.N; i++ {
				cells, err := RunGridContext(context.Background(), opts)
				if err != nil {
					b.Fatal(err)
				}
				if len(cells) != len(opts.Workloads)*len(allocator.Names()) {
					b.Fatal("short grid")
				}
			}
		})
	}
}
