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

// TestDecayWindowReplaysTheLastObservationsInOrder holds the decay ring to
// its contract: whatever the window size and however many observations went
// by, a replay yields exactly the last size of them, oldest first.
func TestDecayWindowReplaysTheLastObservationsInOrder(t *testing.T) {
	for _, size := range []int{0, 1, 2, 5, 16} {
		var w window
		for n := 1; n <= 3*size+4; n++ {
			w.add(observation{taskID: n}, size)
			var got []int
			w.replay(func(o observation) { got = append(got, o.taskID) })
			kept := min(n, size)
			if len(got) != kept {
				t.Fatalf("size %d after %d: replayed %v, want the last %d", size, n, got, kept)
			}
			for i, id := range got {
				if id != n-kept+1+i {
					t.Fatalf("size %d after %d: replayed %v, want tasks %d..%d in arrival order", size, n, got, n-kept+1, n)
				}
			}
		}
		if len(w.obs) > size {
			t.Errorf("size %d: the ring holds %d observations", size, len(w.obs))
		}
	}
}

// TestTenantDecayReplaysTheWindow checks a decay end to end: right after
// one, the category holds exactly the window's records, and the tenant's
// sampled allocations equal those of a fresh allocator, same seed, that
// observed only the last window observations.
func TestTenantDecayReplaysTheWindow(t *testing.T) {
	const maxRecords, window = 40, 15
	tn, err := newTenant("t", allocator.Greedy, 3, maxRecords, window)
	if err != nil {
		t.Fatal(err)
	}
	var all []observation
	for id := 1; id <= maxRecords; id++ {
		o := observation{taskID: id, runtime: float64(10 + id%7),
			peak: resources.New(0.5+float64(id%5)/3, float64(500+97*(id%13)), float64(200+31*(id%11)), 30)}
		all = append(all, o)
		tn.observe("c", o.taskID, o.peak, o.runtime)
	}
	if d := tn.snapshot().Decays; d != 1 {
		t.Fatalf("%d decays after %d observations, want 1", d, maxRecords)
	}
	if n := tn.alloc.Records("c"); n != window {
		t.Fatalf("%d records after the decay, want the window's %d", n, window)
	}
	ref := allocator.MustNew(allocator.Greedy, allocator.Config{Seed: 3})
	for _, o := range all[maxRecords-window:] {
		ref.Observe("c", o.taskID, o.peak, o.runtime)
	}
	for i := 0; i < 50; i++ {
		if got, want := tn.allocate("c", i), ref.Allocate("c", i); got != want {
			t.Fatalf("allocation %d: tenant %v, allocator over the window %v", i, got, want)
		}
	}
}
