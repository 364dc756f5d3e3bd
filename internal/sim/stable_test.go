package sim

import (
	"fmt"
	"testing"

	"dynalloc/internal/allocator"
	"dynalloc/internal/metrics"
	"dynalloc/internal/opportunistic"
	"dynalloc/internal/resources"
)

// countingPolicy forwards to an Allocator, capability included, and counts
// first-attempt policy calls on either entry point.
type countingPolicy struct {
	inner *allocator.Allocator
	calls int
}

func (c *countingPolicy) Name() string { return c.inner.Name() }

func (c *countingPolicy) Allocate(cat string, id int) resources.Vector {
	c.calls++
	return c.inner.Allocate(cat, id)
}

func (c *countingPolicy) AllocateStable(cat string, id int) (resources.Vector, bool) {
	c.calls++
	return c.inner.AllocateStable(cat, id)
}

func (c *countingPolicy) Retry(cat string, id int, prev resources.Vector, exceeded []resources.Kind) resources.Vector {
	return c.inner.Retry(cat, id, prev, exceeded)
}

func (c *countingPolicy) Observe(cat string, id int, peak resources.Vector, runtime float64) {
	c.inner.Observe(cat, id, peak, runtime)
}

// opaquePolicy embeds the Policy interface, so only its four methods are
// promoted: the capability of whatever it wraps is hidden from the engine.
type opaquePolicy struct{ allocator.Policy }

// TestStableDispatchMatchesOpaque is the differential for the collapsed
// dispatch pass: the same run with the capability visible and hidden must
// produce the same result, bit for bit, for every allocator and placement.
// Two categories alternate in the queue, and the pool is a fraction of the
// workload, so passes walk a deep queue of first attempts of both.
func TestStableDispatchMatchesOpaque(t *testing.T) {
	sampled := map[allocator.Name]bool{
		allocator.Quantized: true, allocator.Greedy: true, allocator.Exhaustive: true, allocator.KMeans: true,
	}
	for _, alg := range allocator.ExtendedNames() {
		for _, place := range Placements() {
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/%s/seed%d", alg, place, seed), func(t *testing.T) {
					run := func(hide bool) (*Result, int) {
						w := mustWorkflow(t, "bimodal", 150, seed)
						for i := range w.Tasks {
							w.Tasks[i].Category = [2]string{"even", "odd"}[i%2]
						}
						counted := &countingPolicy{inner: allocator.MustNew(alg, allocator.Config{Seed: seed + 100})}
						var pol allocator.Policy = counted
						if hide {
							pol = opaquePolicy{counted}
						}
						res, err := Run(Config{
							Workflow: w,
							Policy:   pol,
							Pool: opportunistic.Churn{
								Initial: 4, MeanLifetime: 500, MeanInterval: 200,
								Horizon: 2e4, KeepLastAlive: true,
							},
							PoolSeed: seed,
							Place:    place,
						})
						if err != nil {
							t.Fatal(err)
						}
						return res, counted.calls
					}
					stable, stableCalls := run(false)
					opaque, opaqueCalls := run(true)
					if a, b := resultFingerprint(stable), resultFingerprint(opaque); a != b {
						t.Fatalf("fingerprint with the capability %#x, hidden %#x", a, b)
					}
					if sampled[alg] {
						if stableCalls != opaqueCalls {
							t.Errorf("sampling allocator: %d policy calls with the capability, %d hidden", stableCalls, opaqueCalls)
						}
						return
					}
					// Every event handler runs one dispatch pass: the initial
					// event, each arrival, each eviction, each attempt that
					// ran to its end.
					passes := 1 + len(stable.Arrivals) + stable.Evictions
					for _, o := range stable.Outcomes {
						for _, a := range o.Attempts {
							if a.Status != metrics.Evicted {
								passes++
							}
						}
					}
					if max := 2 * passes; stableCalls > max {
						t.Errorf("%d first-attempt policy calls, want at most one per category per pass = %d", stableCalls, max)
					}
					if stableCalls*4 > opaqueCalls {
						t.Errorf("%d policy calls with the capability against %d hidden: the queue was too shallow to test the memo", stableCalls, opaqueCalls)
					}
				})
			}
		}
	}
}
