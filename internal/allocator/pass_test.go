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

// scriptedPolicy is a StablePolicy whose vectors and stability the test sets
// per category; it logs which entry point served which category.
type scriptedPolicy struct {
	Policy // nil: only the two allocation entry points are called
	alloc  map[string]resources.Vector
	stable map[string]bool
	log    []string
}

func (p *scriptedPolicy) Allocate(cat string, id int) resources.Vector {
	p.log = append(p.log, "allocate:"+cat)
	return p.alloc[cat]
}

func (p *scriptedPolicy) AllocateStable(cat string, id int) (resources.Vector, bool) {
	p.log = append(p.log, "stable:"+cat)
	return p.alloc[cat], p.stable[cat]
}

// plainPolicy hides scriptedPolicy's capability.
type plainPolicy struct{ Policy }

func TestPassMemo(t *testing.T) {
	small, big := resources.New(1, 100, 100, 0), resources.New(8, 8000, 800, 0)
	p := &scriptedPolicy{
		alloc:  map[string]resources.Vector{"s": small, "b": big, "u": small},
		stable: map[string]bool{"s": true, "b": true},
	}
	var m PassMemo
	ask := func(cat string, wantAlloc resources.Vector, wantOK bool) {
		t.Helper()
		got, ok := m.Allocate(cat, 0)
		if ok != wantOK || (ok && got != wantAlloc) {
			t.Fatalf("Allocate(%s) = %v, %v; want %v, %v", cat, got, ok, wantAlloc, wantOK)
		}
	}
	wantLog := func(want ...string) {
		t.Helper()
		if fmt.Sprint(p.log) != fmt.Sprint(want) {
			t.Fatalf("policy calls %v, want %v", p.log, want)
		}
		p.log = p.log[:0]
	}

	// Stable categories interleaved: one policy call each, however many
	// tasks ask; a miss on one does not touch the other.
	m.Begin(p)
	ask("s", small, true)
	ask("b", big, true)
	ask("s", small, true)
	m.Missed("b")
	ask("b", big, false)
	ask("s", small, true)
	ask("b", big, false)
	wantLog("stable:s", "stable:b")

	// An unstable category is asked every time and a miss does not stick.
	ask("u", small, true)
	m.Missed("u")
	ask("u", small, true)
	wantLog("stable:u", "stable:u")

	// Nothing survives Begin.
	m.Begin(p)
	ask("b", big, true)
	wantLog("stable:b")

	// A category past the memo's capacity is asked every time, like an
	// unstable one.
	m.Begin(p)
	for i := range m.entries {
		c := fmt.Sprint("c", i)
		p.alloc[c], p.stable[c] = small, true
		ask(c, small, true)
	}
	p.log = p.log[:0]
	ask("b", big, true)
	m.Missed("b")
	ask("b", big, true)
	ask("c0", small, true)
	wantLog("stable:b", "stable:b")

	// Without the capability every call goes to Allocate.
	m.Begin(plainPolicy{p})
	ask("s", small, true)
	m.Missed("s")
	ask("s", small, true)
	wantLog("allocate:s", "allocate:s")
}
