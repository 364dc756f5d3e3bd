package serve

import (
	"runtime"
	"sync"
	"testing"

	"dynalloc/internal/allocator"
	"dynalloc/internal/resources"
)

// TestTenantDecayIsAtomicForConcurrentAllocate is the regression for a decay
// that other connections of the tenant could see half-done: observe ran
// ResetCategory plus the window replay under t.mu, but allocate called the
// allocator before taking t.mu, so a prediction served between the reset and
// the tenth replayed record was the exploration vector (a whole machine for
// max-seen). One goroutine drives a constant-peak stream across many decays,
// another hammers allocate; once the category has left exploratory mode no
// caller may see it re-enter. Run with -race.
func TestTenantDecayIsAtomicForConcurrentAllocate(t *testing.T) {
	const maxRecords, window, observes = 32, 16, 40000
	tn, err := newTenant("t", allocator.MaxSeen, 1, maxRecords, window)
	if err != nil {
		t.Fatal(err)
	}
	explore := tn.allocate("c", 0)
	peak := resources.New(2, 1000, 300, 30)
	for id := 1; id <= window; id++ {
		tn.observe("c", id, peak, 30)
	}
	steady := tn.allocate("c", 0)
	if steady == explore {
		t.Fatalf("warm-up left the category exploring at %.0f cores", steady.Get(resources.Cores))
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for id := window + 1; id <= window+observes; id++ {
			tn.observe("c", id, peak, 30)
		}
	}()
	calls, bad := 0, 0
	for running := true; running; calls++ {
		select {
		case <-done:
			running = false
		default:
		}
		if v := tn.allocate("c", calls); v != steady {
			bad++
		}
		// allocate returns just as the observer is let back into t.mu, so
		// back-to-back calls would always land at the start of an observe,
		// never inside a decay. Yielding spreads them over it.
		runtime.Gosched()
	}
	wg.Wait()
	if bad > 0 {
		t.Errorf("%d of %d allocations during %d decays were not the steady %.0f cores", bad, calls, tn.snapshot().Decays, steady.Get(resources.Cores))
	}
	if d := tn.snapshot().Decays; d < observes/maxRecords {
		t.Errorf("only %d decays ran; the test did not exercise the path", d)
	}
}

// TestTenantDecayTracksLiveRecords checks the allocator's first-attempt memo
// across the decay path: with max-seen on a falling stream every decay drops
// the old maximum, so a prediction that outlived a reset would show. After
// every observation the tenant's prediction, computed and then repeated, must
// equal that of a fresh allocator fed exactly the records still live.
func TestTenantDecayTracksLiveRecords(t *testing.T) {
	const maxRecords, window = 24, 12
	tn, err := newTenant("t", allocator.MaxSeen, 1, maxRecords, window)
	if err != nil {
		t.Fatal(err)
	}
	var live []observation
	for id := 1; id <= 300; id++ {
		o := observation{taskID: id, runtime: 30,
			peak: resources.New(float64(1+id%4), float64(9000-25*id+300*(id%5)), float64(2000-5*id), 30)}
		tn.observe("c", o.taskID, o.peak, o.runtime)
		if live = append(live, o); len(live) >= maxRecords {
			live = append([]observation(nil), live[len(live)-window:]...)
		}
		ref := allocator.MustNew(allocator.MaxSeen, allocator.Config{Seed: 1})
		for _, l := range live {
			ref.Observe("c", l.taskID, l.peak, l.runtime)
		}
		want := ref.Allocate("c", id)
		for call := 0; call < 2; call++ {
			if got := tn.allocate("c", id); got != want {
				t.Fatalf("task %d call %d: tenant %v, fresh allocator over %d live records %v", id, call, got, len(live), want)
			}
		}
	}
	if d := tn.snapshot().Decays; d < 20 {
		t.Errorf("only %d decays ran", d)
	}
}
