package allocator

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"dynalloc/internal/resources"
)

var stableNames = []Name{WholeMachine, MaxSeen, MinWaste, MaxThroughput, Percentile}

// recompute is the memo-free reference: the clamped first-attempt vector
// straight from the category's estimators, as Allocate computed it on every
// call before the memo existed. It reads the category table itself, not the
// lookup Allocate shares with its shortcut, and gives a category the table
// does not hold fresh estimators. Only meaningful for the algorithms that
// draw no randomness.
func (a *Allocator) recompute(category string) resources.Vector {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.cfg.IgnoreCategories {
		category = ""
	}
	cs := a.cats[category]
	if cs == nil {
		cs = &categoryState{}
		for _, k := range a.kinds {
			cs.est[k] = a.newEstimator(k)
		}
	}
	alloc := resources.New(0, 0, 0, resources.Unlimited)
	for _, k := range a.kinds {
		alloc = alloc.With(k, a.clamp(k, cs.est[k].Predict(a.rng)))
	}
	return alloc
}

// TestFirstAttemptMemoTracksReference drives every stable algorithm through
// a random interleaving of Observe and ResetCategory on two categories, with
// categories kept apart and pooled, and checks after every step that both
// the computing call and the memoised call return what the estimators would.
func TestFirstAttemptMemoTracksReference(t *testing.T) {
	cats := [2]string{"a", "b"}
	for _, alg := range stableNames {
		for _, pooled := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/pooled=%v", alg, pooled), func(t *testing.T) {
				a := MustNew(alg, Config{Seed: 5, IgnoreCategories: pooled})
				drive := rand.New(rand.NewPCG(5, 0xA11))
				check := func(step int) {
					t.Helper()
					for _, c := range cats {
						want := a.recompute(c)
						for call := 0; call < 2; call++ {
							got, stable := a.AllocateStable(c, step)
							if !stable {
								t.Fatalf("step %d: %s reported unstable", step, alg)
							}
							if got != want {
								t.Fatalf("step %d call %d category %s: memo %v, estimators %v", step, call, c, got, want)
							}
						}
						if got := a.Allocate(c, step); got != want {
							t.Fatalf("step %d category %s: Allocate %v, estimators %v", step, c, got, want)
						}
					}
				}
				check(0)
				for step := 1; step <= 400; step++ {
					c := cats[drive.IntN(2)]
					if drive.IntN(40) == 0 {
						a.ResetCategory(c)
					} else {
						peak := resources.New(1+3*drive.Float64(), 200+3000*drive.Float64(), 100+800*drive.Float64(), 10+50*drive.Float64())
						a.Observe(c, step, peak, peak.Get(resources.Time))
					}
					check(step)
				}
			})
		}
	}
}

// TestSamplingAllocatorsAreNeverStable pins the other half of the contract:
// a sampling algorithm draws per call, in exploratory mode too, so it never
// reports stable and AllocateStable advances the same stream Allocate does.
func TestSamplingAllocatorsAreNeverStable(t *testing.T) {
	for _, alg := range []Name{Quantized, Greedy, Exhaustive, KMeans} {
		a, twin := MustNew(alg, Config{Seed: 9}), MustNew(alg, Config{Seed: 9})
		for task := 1; task <= 60; task++ {
			got, stable := a.AllocateStable("c", task)
			if stable {
				t.Fatalf("%s reported stable with %d records", alg, task-1)
			}
			if want := twin.Allocate("c", task); got != want {
				t.Fatalf("%s task %d: AllocateStable %v, Allocate %v", alg, task, got, want)
			}
			peak := resources.New(float64(1+task%3), float64(300+task*37%2000), float64(100+task*13%500), 30)
			a.Observe("c", task, peak, 30)
			twin.Observe("c", task, peak, 30)
		}
	}
}
