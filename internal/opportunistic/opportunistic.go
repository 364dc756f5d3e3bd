// Package opportunistic models the worker pools the paper's workflows run
// on: opportunistic workers obtained from an HTCondor cluster through many
// small backfill pilot jobs, joining and leaving the pool over time
// (Sections I and V-A; the paper's runs used 20-50 workers depending on
// cluster availability).
//
// A Model produces a deterministic schedule of worker arrivals (and
// lease-bounded lifetimes) from a seed; the simulator turns the schedule
// into worker-join and worker-evict events.
package opportunistic

import (
	"fmt"
	"math"
	"slices"

	"dynalloc/internal/dist"
)

// Arrival describes one worker joining the pool.
type Arrival struct {
	At       float64 // virtual time the worker joins
	Lifetime float64 // seconds until eviction; <= 0 means the worker stays forever
}

// Model generates worker arrival schedules.
type Model interface {
	// Schedule returns the arrivals sorted by time.
	Schedule(seed uint64) []Arrival
	Name() string
}

// Static provisions N identical workers at time zero that never leave —
// the simplest pool, used when isolating allocator behaviour from churn.
type Static struct {
	N int
}

// Schedule implements Model.
func (s Static) Schedule(uint64) []Arrival {
	out := make([]Arrival, s.N)
	return out
}

// Name implements Model.
func (s Static) Name() string { return fmt.Sprintf("static(%d)", s.N) }

// Backfill models batch-system backfilling: Min workers are available
// immediately and further workers trickle in every Interval seconds (with
// jitter) as the batch system finds holes, up to Max workers. Workers do
// not leave. This reproduces the paper's "20 to 50 workers depending on the
// availability of the local HTCondor cluster".
type Backfill struct {
	Min, Max int
	Interval float64 // mean seconds between acquisitions
}

// Schedule implements Model.
func (b Backfill) Schedule(seed uint64) []Arrival {
	r := dist.NewRand(seed)
	out := make([]Arrival, 0, b.Max)
	for i := 0; i < b.Min; i++ {
		out = append(out, Arrival{})
	}
	at := 0.0
	for i := b.Min; i < b.Max; i++ {
		at += b.Interval * (0.5 + r.Float64())
		out = append(out, Arrival{At: at})
	}
	return out
}

// Name implements Model.
func (b Backfill) Name() string {
	return fmt.Sprintf("backfill(%d..%d, %.0fs)", b.Min, b.Max, b.Interval)
}

// Churn models a volatile opportunistic pool (spot instances, preemptible
// backfill slots): Initial workers join at time zero and replacements keep
// arriving with exponential inter-arrival times until Horizon; every worker
// holds an exponentially distributed lease and is evicted when it expires.
type Churn struct {
	Initial       int
	MeanLifetime  float64 // mean worker lease in seconds
	MeanInterval  float64 // mean seconds between replacement arrivals
	Horizon       float64 // stop provisioning new workers after this time
	MinimumLease  float64 // floor on lease durations (default 60 s)
	KeepLastAlive bool    // grant the final arrival an unbounded lease so work always drains
}

// Schedule implements Model. The arrivals come out in time order by
// construction: the Initial ones at 0, then replacements at times that
// advance by exponential draws (always > 0), then the KeepLastAlive arrival
// at Horizon, which no earlier replacement exceeds.
func (c Churn) Schedule(seed uint64) []Arrival {
	r := dist.NewRand(seed)
	minLease := c.MinimumLease
	if minLease <= 0 {
		minLease = 60
	}
	lease := func() float64 {
		return math.Max(r.ExpFloat64()*c.MeanLifetime, minLease)
	}
	out := make([]Arrival, 0, c.expectedArrivals())
	for i := 0; i < c.Initial; i++ {
		out = append(out, Arrival{At: 0, Lifetime: lease()})
	}
	at := 0.0
	for {
		at += r.ExpFloat64() * c.MeanInterval
		if at > c.Horizon {
			break
		}
		out = append(out, Arrival{At: at, Lifetime: lease()})
	}
	if c.KeepLastAlive {
		last := Arrival{At: c.Horizon, Lifetime: 0}
		if c.Horizon < 0 {
			// A horizon before time zero orders the last arrival first.
			out = slices.Insert(out, 0, last)
		} else {
			out = append(out, last)
		}
	}
	return out
}

// expectedArrivals sizes a schedule: Initial, the Horizon/MeanInterval
// replacements a Poisson process expects plus four standard deviations of
// slack, and the KeepLastAlive arrival.
func (c Churn) expectedArrivals() int {
	n := max(c.Initial, 0) + 1
	if c.MeanInterval > 0 && c.Horizon > 0 {
		mean := min(c.Horizon/c.MeanInterval, 1<<20)
		n += int(mean + 4*math.Sqrt(mean))
	}
	return n
}

// Name implements Model.
func (c Churn) Name() string {
	return fmt.Sprintf("churn(init=%d, life=%.0fs)", c.Initial, c.MeanLifetime)
}

// Scripted replays a fixed arrival schedule verbatim: the seed is ignored
// and Schedule returns exactly the arrivals it was built with. It is the
// pool model behind trace-driven replay (internal/runlog): a recorded run's
// realized worker arrivals and lease ends become the schedule, so a
// counterfactual re-simulation sees the same churn the original run saw
// instead of sampling fresh churn.
type Scripted struct {
	// Label names the schedule's origin (e.g. the source pool's Name()).
	Label string
	// Arrivals is the schedule, sorted ascending by At. The slice is
	// returned as-is by Schedule; callers must not mutate it afterwards.
	Arrivals []Arrival
}

// Schedule implements Model. The seed is ignored — the whole point of a
// scripted pool is that nothing is resampled.
func (s Scripted) Schedule(uint64) []Arrival { return s.Arrivals }

// Name implements Model.
func (s Scripted) Name() string {
	if s.Label != "" {
		return fmt.Sprintf("scripted(%s, %d workers)", s.Label, len(s.Arrivals))
	}
	return fmt.Sprintf("scripted(%d workers)", len(s.Arrivals))
}

// PaperPool returns the evaluation pool shape of Section V-A: workers
// ramping from 20 up to 50 as the HTCondor cluster makes room.
func PaperPool() Model {
	return Backfill{Min: 20, Max: 50, Interval: 120}
}
