package allocator

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"dynalloc/internal/resources"
)

// stableNames is every algorithm Name.Stable lists.
var stableNames = func() (out []Name) {
	for _, n := range ExtendedNames() {
		if n.Stable() {
			out = append(out, n)
		}
	}
	return out
}()

// recompute is the memo-free reference: the clamped first-attempt vector
// straight from the category's estimators, as Allocate computed it on every
// call before the memo existed. It reads the category table itself, not
// through Allocate's lookup, and gives a category the table does not hold
// fresh estimators. Only meaningful for the algorithms that draw no
// randomness.
func (a *Allocator) recompute(category string) resources.Vector {
	a.mu.Lock()
	defer a.mu.Unlock()
	cs := a.cats[a.key(category)]
	if cs == nil {
		cs = &categoryState{}
		for _, k := range a.kinds {
			cs.est[k] = a.newEstimator(k)
		}
	}
	alloc := resources.New(0, 0, 0, resources.Unlimited)
	for _, k := range a.kinds {
		alloc = alloc.With(k, a.predict(k, cs.est[k]))
	}
	return alloc
}

// TestStableNamesKeepTheirPromise checks, for every algorithm, the property
// Name.Stable promises: with records in place and no Observe between them,
// two Allocates for different tasks of a category return the same vector and
// leave the RNG exactly where it was. Both must hold if and only if Stable
// lists the name.
func TestStableNamesKeepTheirPromise(t *testing.T) {
	cats := [2]string{"a", "b"}
	for _, alg := range ExtendedNames() {
		a, twin := MustNew(alg, Config{Seed: 11}), MustNew(alg, Config{Seed: 11})
		drive := rand.New(rand.NewPCG(11, 0x57AB1E))
		for task := 1; task <= 40; task++ {
			// Two memory modes per category, so the sampling algorithms
			// hold more than one bucket to choose from.
			peak := resources.New(1+7*drive.Float64(), float64(500+7000*(task/2%2))+300*drive.Float64(), 100+900*drive.Float64(), 30)
			a.Observe(cats[task%2], task, peak, 30)
			twin.Observe(cats[task%2], task, peak, 30)
		}
		kept := true
		for _, c := range cats {
			first, second := a.Allocate(c, 100), a.Allocate(c, 101)
			kept = kept && first == second && a.rng.Uint64() == twin.rng.Uint64()
		}
		if kept != alg.Stable() {
			t.Errorf("%s: same vector with the RNG untouched %v, Stable() %v", alg, kept, alg.Stable())
		}
	}
}

// TestFirstAttemptMemoTracksReference drives every stable algorithm through
// a random interleaving of Observe and ResetCategory on two categories, with
// categories kept apart and pooled, and checks after every step that both
// the computing call and the memoised call return what the estimators would,
// that a step leaves nothing published, and that what a call publishes is
// what the lock-free read then serves.
func TestFirstAttemptMemoTracksReference(t *testing.T) {
	cats := [2]string{"a", "b"}
	for _, alg := range stableNames {
		for _, pooled := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/pooled=%v", alg, pooled), func(t *testing.T) {
				a := MustNew(alg, Config{Seed: 5, IgnoreCategories: pooled})
				drive := rand.New(rand.NewPCG(5, 0xA11))
				check := func(step int) {
					t.Helper()
					if m := a.served.Load(); step > 0 && m != nil {
						t.Fatalf("step %d: memo of %q still published", step, m.category)
					}
					for _, c := range cats {
						want := a.recompute(c)
						for call := 0; call < 2; call++ {
							if got := a.Allocate(c, step); got != want {
								t.Fatalf("step %d call %d category %s: memo %v, estimators %v", step, call, c, got, want)
							}
							if m := a.served.Load(); m == nil || m.category != a.key(c) || m.alloc != want {
								t.Fatalf("step %d call %d category %s: published %+v, estimators %v", step, call, c, m, want)
							}
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

// TestSamplingAllocatorsAreNeverStable pins the other half of the memo: a
// sampling algorithm draws per call, in exploratory mode too, so it never
// publishes a memo, whatever it has observed.
func TestSamplingAllocatorsAreNeverStable(t *testing.T) {
	for _, alg := range ExtendedNames() {
		if alg.Stable() {
			continue
		}
		a := MustNew(alg, Config{Seed: 9})
		for task := 1; task <= 60; task++ {
			a.Allocate("c", task)
			if m := a.served.Load(); m != nil {
				t.Fatalf("%s published a memo with %d records", alg, task-1)
			}
			peak := resources.New(float64(1+task%3), float64(300+task*37%2000), float64(100+task*13%500), 30)
			a.Observe("c", task, peak, 30)
		}
	}
}

// TestStableMemoConcurrentReaders runs Allocate on several goroutines while
// one goroutine Observes rising peaks and resets, on two categories, kept
// apart and pooled. Every vector a reader gets must be one the estimators
// produced for that category at some point of the run (a torn or invented
// read is not), and the writer's own Allocate after each of its Observes must
// already see the new estimators, never the memo that Observe retired.
// Run it under -race: the readers take the lock-free path.
func TestStableMemoConcurrentReaders(t *testing.T) {
	const readers, steps = 4, 200
	cats := [2]string{"a", "b"}
	for _, pooled := range []bool{false, true} {
		t.Run(fmt.Sprintf("pooled=%v", pooled), func(t *testing.T) {
			a := MustNew(MaxSeen, Config{Seed: 3, ExploreCount: 1, IgnoreCategories: pooled})
			// held[c] is every vector c's estimators produced: the writer
			// records it after every change, and the readers' vectors are
			// checked against it once they have all stopped.
			var mu sync.Mutex
			held := map[string]map[resources.Vector]bool{}
			record := func() {
				mu.Lock()
				defer mu.Unlock()
				for _, c := range cats {
					if held[c] == nil {
						held[c] = map[resources.Vector]bool{}
					}
					held[c][a.recompute(c)] = true
				}
			}
			record()
			seen := make([]map[string]map[resources.Vector]bool, readers)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for r := range seen {
				seen[r] = map[string]map[resources.Vector]bool{"a": {}, "b": {}}
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						c := cats[(i+r)%2]
						seen[r][c][a.Allocate(c, i)] = true
					}
				}(r)
			}
			drive := rand.New(rand.NewPCG(3, 0xC0C))
			for step := 1; step <= steps; step++ {
				c := cats[drive.IntN(2)]
				if drive.IntN(30) == 0 {
					a.ResetCategory(c)
					record()
					continue
				}
				before := a.Allocate(c, step)
				// Rising peaks: 250 MB more every step lifts max-seen's
				// memory bucket, below capacity, so every Observe changes
				// the vector.
				peak := resources.New(1+drive.Float64(), float64(250*step), 100, 30)
				a.Observe(c, step, peak, 30)
				record()
				after := a.Allocate(c, step)
				if after == before {
					t.Fatalf("step %d category %s: Allocate after Observe still serves %v", step, c, before)
				}
				if want := a.recompute(c); after != want {
					t.Fatalf("step %d category %s: Allocate after Observe %v, estimators %v", step, c, after, want)
				}
			}
			close(stop)
			wg.Wait()
			for r := range seen {
				for c, vs := range seen[r] {
					for v := range vs {
						if !held[c][v] {
							t.Fatalf("reader %d got %v for %s, which its estimators never produced", r, v, c)
						}
					}
				}
			}
		})
	}
}
