package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"dynalloc/internal/sim"
)

// Progress reports one completed unit of a long-running experiment sweep.
// Callbacks are invoked serially (never concurrently) with Done strictly
// increasing, so they can drive a progress bar without synchronization.
type Progress struct {
	// Done is the number of completed cells so far, Total the sweep size.
	Done, Total int
	// Cell is the cell that just completed. Completion order is
	// nondeterministic under parallelism; only the counts are monotonic.
	Cell Cell
}

// newProgressFunnel serializes progress callbacks from concurrent workers
// into monotone Done counts; it returns a no-op when fn is nil.
func newProgressFunnel(fn func(Progress), total int) func(Cell) {
	if fn == nil {
		return func(Cell) {}
	}
	var mu sync.Mutex
	done := 0
	return func(c Cell) {
		mu.Lock()
		defer mu.Unlock()
		done++
		fn(Progress{Done: done, Total: total, Cell: c})
	}
}

// effectiveParallelism resolves the worker count for a sweep of n units.
func effectiveParallelism(requested, n int) int {
	if requested <= 0 {
		requested = runtime.GOMAXPROCS(0)
	}
	if requested > n {
		requested = n
	}
	if requested < 1 {
		requested = 1
	}
	return requested
}

// RunIndexed runs fn(i) for every i in [0, n) on up to parallelism worker
// goroutines. The first failure cancels the remaining work (in-flight
// simulations abort at their next context check; unstarted units never
// run) and is returned; pure cancellation errors never mask a real
// failure. A nil ctx means context.Background().
func RunIndexed(ctx context.Context, n, parallelism int, fn func(ctx context.Context, i int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	parallelism = effectiveParallelism(parallelism, n)
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next  atomic.Int64
		mu    sync.Mutex
		first error
	)
	fail := func(err error) {
		mu.Lock()
		// Keep the most informative error: a real failure beats the
		// cancellation noise the other workers report once cancel() fires.
		if first == nil || (errors.Is(first, sim.ErrCanceled) && !errors.Is(err, sim.ErrCanceled)) {
			first = err
		}
		mu.Unlock()
		cancel()
	}

	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := cctx.Err(); err != nil {
					fail(fmt.Errorf("harness: %w: %w", sim.ErrCanceled, err))
					return
				}
				if err := fn(cctx, i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}
