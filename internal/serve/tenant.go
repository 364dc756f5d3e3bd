package serve

import (
	"sync"
	"time"

	"dynalloc/internal/allocator"
	"dynalloc/internal/resources"
)

// observation is one retained Observe call, kept in the per-category decay
// window so a reset category can be rebuilt from recent history with the
// original task-ID significance values.
type observation struct {
	taskID  int
	peak    resources.Vector
	runtime float64
}

// window is one category's decay ring: the most recent observations, at
// most size of them. It grows to size by appending, then overwrites its
// oldest observation in place, so keeping it costs O(1) per Observe.
type window struct {
	obs  []observation
	next int // once obs is full, the oldest observation, the next overwritten
}

// add keeps o, dropping the oldest observation once size are kept.
func (w *window) add(o observation, size int) {
	switch {
	case size <= 0:
	case len(w.obs) < size:
		w.obs = append(w.obs, o)
	default:
		w.obs[w.next] = o
		if w.next++; w.next == len(w.obs) {
			w.next = 0
		}
	}
}

// replay calls fn on the kept observations in arrival order.
func (w *window) replay(fn func(observation)) {
	for _, o := range w.obs[w.next:] {
		fn(o)
	}
	for _, o := range w.obs[:w.next] {
		fn(o)
	}
}

// tenant is one workflow's isolated allocator state: its own
// allocator.Allocator (and therefore its own record.List/bucketing state and
// its own lock), service counters, and the decay bookkeeping that keeps a
// long-lived tenant's memory bounded.
type tenant struct {
	name string
	alg  allocator.Name

	// mu guards the decay bookkeeping and counters, and every call into the
	// allocator runs under it: a decay is ResetCategory plus a window replay,
	// several allocator calls that must look like one to this tenant's other
	// connections, or a prediction served between them would be the
	// exploration vector. Other tenants share nothing at all.
	mu         sync.Mutex
	alloc      *allocator.Allocator
	refs       int       // connections currently registered
	lastActive time.Time // last frame served, for TTL eviction

	allocates int64
	retries   int64
	observes  int64
	decays    int64

	// seen is every category this tenant has observed records for.
	seen map[string]struct{}
	// Per-category decay state: how many records the category has
	// accumulated since its last reset, and the ring of the most recent
	// window observations replayed after a reset.
	counts map[string]int
	recent map[string]*window

	maxRecords  int // reset a category at this record count; 0 disables
	decayWindow int // observations replayed after a reset
}

func newTenant(name string, alg allocator.Name, seed uint64, maxRecords, decayWindow int) (*tenant, error) {
	a, err := allocator.New(alg, allocator.Config{Seed: seed})
	if err != nil {
		return nil, err
	}
	return &tenant{
		name:        name,
		alg:         alg,
		alloc:       a,
		lastActive:  time.Now(),
		seen:        make(map[string]struct{}),
		counts:      make(map[string]int),
		recent:      make(map[string]*window),
		maxRecords:  maxRecords,
		decayWindow: decayWindow,
	}, nil
}

// allocate serves a first-attempt prediction.
func (t *tenant) allocate(category string, taskID int) resources.Vector {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.allocates++
	t.lastActive = time.Now()
	return t.alloc.Allocate(category, taskID)
}

// retry serves an escalated prediction after a failed attempt.
func (t *tenant) retry(category string, taskID int, prev resources.Vector, exceeded []resources.Kind) resources.Vector {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.retries++
	t.lastActive = time.Now()
	return t.alloc.Retry(category, taskID, prev, exceeded)
}

// observe feeds one completed task's record into the tenant's allocator and
// applies the decay policy: once a category reaches maxRecords records it is
// reset and rebuilt from the retained window, so the per-category record
// list (and the bucketing state derived from it) never grows beyond
// maxRecords no matter how long the tenant lives.
func (t *tenant) observe(category string, taskID int, peak resources.Vector, runtime float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.observes++
	t.lastActive = time.Now()
	t.seen[category] = struct{}{}

	t.alloc.Observe(category, taskID, peak, runtime)

	if t.maxRecords <= 0 {
		return
	}
	w := t.recent[category]
	if w == nil {
		w = &window{}
		t.recent[category] = w
	}
	w.add(observation{taskID: taskID, peak: peak, runtime: runtime}, t.decayWindow)
	t.counts[category]++
	if t.counts[category] < t.maxRecords {
		return
	}
	// Decay: drop the category's full history and replay only the window.
	// Recency weighting (significance = task ID) already makes the dropped
	// tail nearly weightless, so predictions move little while memory
	// returns to the window size.
	t.alloc.ResetCategory(category)
	w.replay(func(o observation) { t.alloc.Observe(category, o.taskID, o.peak, o.runtime) })
	t.counts[category] = len(w.obs)
	t.decays++
}

// snapshot returns the tenant's current stats.
func (t *tenant) snapshot() TenantStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := TenantStats{
		Tenant:      t.name,
		Connections: t.refs,
		Allocates:   t.allocates,
		Retries:     t.retries,
		Observes:    t.observes,
		Decays:      t.decays,
	}
	s.Categories = len(t.seen)
	for c := range t.seen {
		s.Records += t.alloc.Records(c)
	}
	return s
}
