package allocator

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"

	"dynalloc/internal/core"
	"dynalloc/internal/dist"
	"dynalloc/internal/names"
	"dynalloc/internal/record"
	"dynalloc/internal/resources"
	"math/rand/v2"
)

// Name identifies one of the seven allocation algorithms of the evaluation.
type Name string

// The allocation algorithms compared in Section V.
const (
	WholeMachine  Name = "whole-machine"
	MaxSeen       Name = "max-seen"
	MinWaste      Name = "min-waste"
	MaxThroughput Name = "max-throughput"
	Quantized     Name = "quantized-bucketing"
	Greedy        Name = "greedy-bucketing"
	Exhaustive    Name = "exhaustive-bucketing"
)

// Names returns all algorithm names in the order the paper's figures list
// them.
func Names() []Name {
	return []Name{WholeMachine, MaxSeen, MinWaste, MaxThroughput, Quantized, Greedy, Exhaustive}
}

// PredictiveNames returns the algorithm names excluding the Whole Machine
// baseline (the set shown in Figure 6).
func PredictiveNames() []Name {
	return []Name{MaxSeen, MinWaste, MaxThroughput, Quantized, Greedy, Exhaustive}
}

// Stable reports whether the named algorithm draws no randomness when it
// predicts: between two Observes of a category, every Allocate for it returns
// the same vector, for any task, and leaves the RNG where it was. Any other
// name, a sampling algorithm's or one that names no algorithm, is not.
func (n Name) Stable() bool {
	switch n {
	case WholeMachine, MaxSeen, MinWaste, MaxThroughput, Percentile:
		return true
	}
	return false
}

// ErrUnknownAlgorithm is returned (wrapped) when an algorithm name does not
// match any known algorithm. Match it with errors.Is.
var ErrUnknownAlgorithm = errors.New("allocator: unknown algorithm")

// ParseName validates an algorithm name string, following the shared
// Names()/Parse() registry contract: the error wraps ErrUnknownAlgorithm
// and lists the valid names. Both the paper's seven algorithms and the
// extensions are accepted.
func ParseName(s string) (Name, error) {
	return names.Parse(s, ExtendedNames(), func(n Name) string { return string(n) }, ErrUnknownAlgorithm)
}

// Policy is the contract between the task scheduler and a resource
// allocator (Figure 3a): the scheduler asks for an allocation for every
// ready task, reports failed attempts to obtain escalated allocations, and
// feeds back the resource record of every completed task.
//
// Concurrency: a Policy is stateful, so implementations are only required
// to be safe when a single simulation drives them at a time. The parallel
// experiment harness satisfies this by constructing one Policy instance per
// grid cell; *Allocator additionally serializes its methods with a mutex
// and is safe to share across goroutines.
type Policy interface {
	// Allocate returns the first-attempt allocation for a task.
	Allocate(category string, taskID int) resources.Vector
	// Retry returns the allocation after a failed attempt. prev is the
	// allocation that failed and exceeded lists the kinds the task
	// exhausted; unexhausted kinds keep their allocations.
	Retry(category string, taskID int, prev resources.Vector, exceeded []resources.Kind) resources.Vector
	// Observe reports the peak consumption and runtime of a completed task.
	Observe(category string, taskID int, peak resources.Vector, runtime float64)
	// Name identifies the algorithm whose vectors Allocate returns. The
	// dispatch pass (internal/sched) reads it once: a policy named by a stable
	// algorithm (Name.Stable) is asked once per category per pass. A wrapper
	// that only watches the calls forwards it; one that changes what Allocate
	// returns must report a name of its own.
	Name() string
}

// Config tunes an Allocator. The zero value plus Capacity is usable;
// defaults follow Section V-A.
type Config struct {
	// Capacity is the worker shape; predictions are clamped to it. Zero
	// means the paper worker (16 cores / 64 GB / 64 GB).
	Capacity resources.Vector
	// ExploreCount is the number of records required to leave exploratory
	// mode. Zero means 10 (Section V-A).
	ExploreCount int
	// AllocateTime, when true, also predicts and enforces the wall-time
	// dimension. The paper's evaluation leaves time unconstrained.
	AllocateTime bool
	// MaxBuckets caps Exhaustive Bucketing's configurations. Zero means 10.
	MaxBuckets int
	// IgnoreCategories pools every task category into a single estimator
	// state. The paper argues against this (Section III-B: different
	// categories don't necessarily correlate and should be allocated
	// independently); the knob exists to quantify that argument.
	IgnoreCategories bool
	// FlatSignificance gives every record significance 1 instead of the
	// paper's task-ID recency weighting (Section V-A), removing the
	// bucketing approach's bias toward recent records. The knob exists to
	// ablate the recency weighting's contribution on phasing workloads.
	FlatSignificance bool
	// Seed drives the allocator's probabilistic bucket choices.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Capacity.IsZero() {
		c.Capacity = resources.PaperWorker()
	}
	if c.ExploreCount == 0 {
		c.ExploreCount = 10
	}
	return c
}

// exploration is the first-attempt allocation of alg while fewer than
// ExploreCount records have been observed: 1 core / 1 GB / 1 GB for the
// bucketing family, a whole machine for the alternatives (Section V-C).
func exploration(alg Name, capacity resources.Vector) resources.Vector {
	switch alg {
	case Greedy, Exhaustive, Quantized:
		return resources.PaperExploration()
	}
	return capacity
}

// kinds returns the resource kinds this configuration allocates.
func (c Config) kinds() []resources.Kind {
	if c.AllocateTime {
		return resources.Kinds()
	}
	return resources.AllocatedKinds()
}

// Allocator is the adaptive resource allocator of Section IV-D: it maintains
// an independent estimator instance per task category and per resource kind,
// wraps each in the exploratory mode, and serves multi-resource allocations
// clamped to worker capacity. It is safe for concurrent use.
//
// A stable algorithm's first-attempt vector is memoised per category and the
// memo last served is published through an atomic pointer, so an Allocate for
// that category returns without taking the lock. Observe and ResetCategory
// withdraw the publication under the lock before they touch any estimator: a
// reader that still loaded the old memo is ordered before them, as Name.Stable
// allows.
type Allocator struct {
	alg     Name
	cfg     Config
	explore resources.Vector // the exploratory-mode allocation (exploration)
	kinds   []resources.Kind // cfg.kinds(), computed once at construction
	stable  bool             // alg.Stable(): its Predict draws no randomness
	// served is the memo Allocate last served, nil after an Observe or
	// a reset; only stable algorithms publish. Read without mu, written
	// under it.
	served atomic.Pointer[firstMemo]
	mu     sync.Mutex
	rng    *rand.Rand
	cats   map[string]*categoryState
}

type categoryState struct {
	est [resources.NumKinds]Estimator // nil for kinds not under allocation
	// first is a stable algorithm's clamped first-attempt vector as last
	// computed, served while hasFirst; Observe clears hasFirst, ResetCategory
	// drops the whole state. Observe keeps first itself, so a recomputation
	// that lands on the same vector republishes it without allocating.
	first    *firstMemo
	hasFirst bool
}

// firstMemo is one category's memoised first-attempt vector. It is immutable
// once built, so a lock-free reader of Allocator.served sees it whole.
type firstMemo struct {
	category string // after IgnoreCategories normalisation
	alloc    resources.Vector
}

// New builds an allocator running the named algorithm.
func New(alg Name, cfg Config) (*Allocator, error) {
	if _, err := ParseName(string(alg)); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	return &Allocator{
		alg:     alg,
		cfg:     cfg,
		explore: exploration(alg, cfg.Capacity),
		kinds:   cfg.kinds(),
		stable:  alg.Stable(),
		rng:     dist.NewRand(cfg.Seed),
		cats:    make(map[string]*categoryState),
	}, nil
}

// MustNew is New for static configurations known to be valid.
func MustNew(alg Name, cfg Config) *Allocator {
	a, err := New(alg, cfg)
	if err != nil {
		panic(err)
	}
	return a
}

// Name implements Policy.
func (a *Allocator) Name() string { return string(a.alg) }

// Algorithm returns the algorithm name.
func (a *Allocator) Algorithm() Name { return a.alg }

// key is the category's estimator-state key: every category is one under
// IgnoreCategories.
func (a *Allocator) key(cat string) string {
	if a.cfg.IgnoreCategories {
		return ""
	}
	return cat
}

func (a *Allocator) category(cat string) *categoryState {
	cat = a.key(cat)
	cs, ok := a.cats[cat]
	if !ok {
		cs = &categoryState{}
		for _, k := range a.kinds {
			cs.est[k] = a.newEstimator(k)
		}
		a.cats[cat] = cs
	}
	return cs
}

// newEstimator builds the estimator of kind k. Estimators count in the
// kind's observation units (observeScale), so every value the allocator
// hands one is converted first.
func (a *Allocator) newEstimator(k resources.Kind) Estimator {
	var inner Estimator
	scale := observeScale.Get(k)
	switch a.alg {
	case WholeMachine:
		return &wholeMachine{capacity: unitsAbove(a.cfg.Capacity.Get(k), scale)}
	case MaxSeen:
		inner = &maxSeen{quantum: unitsAbove(maxSeenQuantum.Get(k), scale)}
	case MinWaste:
		inner = &minWaste{}
	case MaxThroughput:
		inner = &maxThroughput{}
	case Quantized:
		inner = newQuantized(quantizedQuantiles)
	case Greedy:
		inner = newBucketing(core.GreedyBucketing{})
	case Exhaustive:
		inner = newBucketing(core.ExhaustiveBucketing{MaxBuckets: a.cfg.MaxBuckets})
	case KMeans:
		inner = newKMeans(kmeansK)
	case Percentile:
		inner = newPercentile(percentileQ)
	default:
		panic("allocator: unreachable algorithm " + a.alg)
	}
	return &explorer{
		inner:     inner,
		threshold: a.cfg.ExploreCount,
		initial:   unitsAbove(a.explore.Get(k), scale),
	}
}

// Allocate implements Policy. The stable algorithms compute a category's
// first-attempt vector once per Observe and serve the memo in between,
// lock-free while it is the one last served; the sampling ones draw per call,
// in exploratory mode too, so their RNG streams do not depend on who asks.
func (a *Allocator) Allocate(category string, taskID int) resources.Vector {
	key := a.key(category)
	if m := a.served.Load(); m != nil && m.category == key {
		return m.alloc
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	cs := a.category(key)
	if cs.hasFirst {
		a.served.Store(cs.first)
		return cs.first.alloc
	}
	alloc := resources.New(0, 0, 0, resources.Unlimited)
	// Iterate kinds in canonical order so the shared RNG stream, and hence
	// the whole run, is reproducible from the seed.
	for _, k := range a.kinds {
		alloc = alloc.With(k, a.predict(k, cs.est[k]))
	}
	if a.stable {
		if cs.first == nil || cs.first.alloc != alloc {
			cs.first = &firstMemo{category: key, alloc: alloc}
		}
		cs.hasFirst = true
		a.served.Store(cs.first)
	}
	return alloc
}

// Retry implements Policy: exhausted kinds escalate through the kind's
// estimator; all other kinds keep their previous allocation.
func (a *Allocator) Retry(category string, taskID int, prev resources.Vector, exceeded []resources.Kind) resources.Vector {
	a.mu.Lock()
	defer a.mu.Unlock()
	cs := a.category(category)
	next := prev
	for _, k := range exceeded {
		if k < 0 || k >= resources.NumKinds || cs.est[k] == nil {
			continue // kind not under allocation (e.g. time when disabled)
		}
		scale := observeScale.Get(k)
		v := cs.est[k].Retry(unitsBelow(prev.Get(k), scale), a.rng) / scale
		if v <= prev.Get(k) {
			v = prev.Get(k) * 2 // defensive: keep escalation strictly increasing
		}
		next = next.With(k, a.clamp(k, v))
	}
	return next
}

// Observe implements Policy. Each resource kind's record carries the task's
// peak consumption for that kind rounded up to the kind's unit, the task ID
// as its significance value (Section V-A), and the runtime in milliseconds,
// rounded up, for the time-weighted baselines. The rounding happens here,
// once, for every estimator.
//
// A record list refuses a record that would carry its sums past the int64
// bound (internal/record); such an observation is dropped by the estimators
// that keep lists. Task IDs, significance here, are capped at maxSig so that
// a client's large IDs do not bring the bound near.
func (a *Allocator) Observe(category string, taskID int, peak resources.Vector, runtime float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.served.Store(nil)
	cs := a.category(category)
	cs.hasFirst = false
	sig := float64(min(taskID, maxSig))
	if a.cfg.FlatSignificance {
		sig = 1
	}
	ms := unitsAbove(runtime, observeScale.Get(resources.Time))
	for _, k := range a.kinds {
		cs.est[k].Observe(record.Record{
			TaskID: taskID,
			Value:  unitsAbove(peak.Get(k), observeScale.Get(k)),
			Sig:    sig,
			Time:   ms,
		})
	}
}

// maxSig caps the significance of an observation: task IDs above it weigh
// as much as it does.
const maxSig = 1 << 31

// unitsAbove returns the smallest whole number of units, at scale units per
// physical unit, that covers x: the smallest integer q with q/scale ≥ x. It
// is the rounding Observe applies, and q/scale, the value served back, is
// never below x. At scale 1, and for values too large to count exactly, the
// ceiling is the answer.
func unitsAbove(x, scale float64) float64 {
	q := math.Ceil(x * scale)
	if scale == 1 || !(math.Abs(q) < 1<<53) {
		return q
	}
	for q/scale < x {
		q++
	}
	for (q-1)/scale >= x {
		q--
	}
	return q
}

// unitsBelow returns the largest integer q with q/scale ≤ x: a value in
// units exceeds q exactly when its physical value exceeds x, which is the
// comparison Retry's escalation makes. At scale 1 it is the floor.
func unitsBelow(x, scale float64) float64 {
	q := math.Floor(x * scale)
	if scale == 1 || !(math.Abs(q) < 1<<53) {
		return q
	}
	for q/scale > x {
		q--
	}
	for (q+1)/scale <= x {
		q++
	}
	return q
}

// predict is kind k's first-attempt value from its estimator, converted from
// observation units to the kind's unit and clamped to capacity.
func (a *Allocator) predict(k resources.Kind, est Estimator) float64 {
	return a.clamp(k, est.Predict(a.rng)/observeScale.Get(k))
}

// clamp bounds a predicted value to (0, capacity].
func (a *Allocator) clamp(k resources.Kind, v float64) float64 {
	cap := a.cfg.Capacity.Get(k)
	if v > cap {
		return cap
	}
	if v <= 0 {
		return a.explore.Get(k)
	}
	return v
}

// ResetCategory drops every record observed for a category, returning it to
// the exploratory mode with fresh estimator state. Long-lived callers (the
// allocator service) use it to bound per-category memory: reset, then replay
// a retained window of recent observations, so the record list never grows
// without bound. Unknown categories are a no-op. The shared RNG stream is
// not rewound, so a reset changes subsequent probabilistic bucket choices —
// callers that need bit-reproducible streams must not reset mid-stream.
func (a *Allocator) ResetCategory(category string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.served.Store(nil)
	delete(a.cats, a.key(category))
}

// Records returns the number of records observed for a category. Every kind
// of a category sees the same observations, so the count is read from the
// first allocated kind in canonical order.
func (a *Allocator) Records(category string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	cs, ok := a.cats[a.key(category)]
	if !ok {
		return 0
	}
	return cs.est[a.kinds[0]].Len()
}

// BucketStats returns the bucketing telemetry per (category, kind) when the
// algorithm is Greedy or Exhaustive Bucketing; otherwise it returns nil.
func (a *Allocator) BucketStats() map[string]map[resources.Kind]core.Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out map[string]map[resources.Kind]core.Stats
	for cat, cs := range a.cats {
		for _, k := range a.kinds {
			ex, ok := cs.est[k].(*explorer)
			if !ok {
				continue
			}
			b, ok := ex.inner.(*bucketing)
			if !ok {
				continue
			}
			if out == nil {
				out = make(map[string]map[resources.Kind]core.Stats)
			}
			if out[cat] == nil {
				out[cat] = make(map[resources.Kind]core.Stats)
			}
			out[cat][k] = b.Stats()
		}
	}
	return out
}
