package sim

import (
	"fmt"
	"math"
	"testing"

	"dynalloc/internal/allocator"
	"dynalloc/internal/metrics"
	"dynalloc/internal/opportunistic"
	"dynalloc/internal/resources"
)

// countingPolicy embeds the Policy it wraps, as the benchmark's
// completionStamps does, so it forwards Name, and counts first-attempt calls.
type countingPolicy struct {
	allocator.Policy
	calls int
}

func (c *countingPolicy) Allocate(cat string, id int) resources.Vector {
	c.calls++
	return c.Policy.Allocate(cat, id)
}

// renamedPolicy reports a name of its own, which names no algorithm, so the
// engine cannot know what answers behind it.
type renamedPolicy struct{ allocator.Policy }

func (renamedPolicy) Name() string { return "renamed" }

// stableCategoriesRun is a churning run with two categories interleaved in the
// queue and a pool a fraction of the workload, so passes walk a deep queue of
// first attempts of both.
func stableCategoriesRun(t *testing.T, pol allocator.Policy, place Placement, seed uint64) *Result {
	t.Helper()
	w := mustWorkflow(t, "bimodal", 150, seed)
	for i := range w.Tasks {
		w.Tasks[i].Category = [2]string{"even", "odd"}[i%2]
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
	return res
}

// TestStableDispatchMatchesOpaque is the differential for the collapsed
// dispatch pass: the same run behind a wrapper that embeds the Policy
// interface, and so forwards its name, and behind one that reports a name of
// its own must produce the same result, bit for bit, for every allocator and
// placement. Through the first, a stable algorithm is asked at most once per
// category per pass; through the second, every algorithm is asked once per
// queued first attempt.
func TestStableDispatchMatchesOpaque(t *testing.T) {
	for _, alg := range allocator.ExtendedNames() {
		for _, place := range Placements() {
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/%s/seed%d", alg, place, seed), func(t *testing.T) {
					newPolicy := func() *countingPolicy {
						return &countingPolicy{Policy: allocator.MustNew(alg, allocator.Config{Seed: seed + 100})}
					}
					wrapped, renamed := newPolicy(), newPolicy()
					res := stableCategoriesRun(t, wrapped, place, seed)
					opaque := stableCategoriesRun(t, renamedPolicy{renamed}, place, seed)
					if a, b := resultFingerprint(res), resultFingerprint(opaque); a != b {
						t.Fatalf("fingerprint through the name %#x, renamed %#x", a, b)
					}
					if !alg.Stable() {
						if wrapped.calls != renamed.calls {
							t.Errorf("sampling allocator: %d policy calls through the name, %d renamed", wrapped.calls, renamed.calls)
						}
						return
					}
					// Every event handler runs one dispatch pass: the initial
					// event, each arrival, each eviction, each attempt that
					// ran to its end.
					passes := 1 + len(res.Arrivals) + res.Evictions
					for _, o := range res.Outcomes {
						for _, a := range o.Attempts {
							if a.Status != metrics.Evicted {
								passes++
							}
						}
					}
					if max := 2 * passes; wrapped.calls > max {
						t.Errorf("%d first-attempt policy calls, want at most one per category per pass = %d", wrapped.calls, max)
					}
					if wrapped.calls*4 > renamed.calls {
						t.Errorf("%d policy calls through the name against %d renamed: the queue was too shallow to test the memo", wrapped.calls, renamed.calls)
					}
				})
			}
		}
	}
}

// TestOracleIsAskedPerFirstAttempt runs the oracle, whose name is no
// algorithm and whose vector differs per task, through a deep queue: had a
// pass reused one task's vector for another, some task would run with
// another's peak and the oracle would lose its perfect efficiency.
func TestOracleIsAskedPerFirstAttempt(t *testing.T) {
	for _, place := range Placements() {
		w := mustWorkflow(t, "bimodal", 150, 1)
		counted := &countingPolicy{Policy: NewOracle(w)}
		res, err := Run(Config{Workflow: w, Policy: counted, Pool: opportunistic.Static{N: 3}, Place: place})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range resources.AllocatedKinds() {
			if awe := res.Acc.AWE(k); math.Abs(awe-1) > 1e-9 {
				t.Errorf("%s: oracle AWE(%s) = %v, want 1", place, k, awe)
			}
		}
		if res.Acc.Retries() != 0 || counted.calls <= w.Len() {
			t.Errorf("%s: %d retries, %d first-attempt calls for %d tasks; want 0 and more calls than tasks", place, res.Acc.Retries(), counted.calls, w.Len())
		}
	}
}
