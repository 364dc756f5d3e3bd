// Package condor simulates the batch system underneath the paper's worker
// pool: an HTCondor-style cluster whose slots are primarily consumed by a
// stream of higher-priority batch jobs, with the workflow's pilot jobs
// (workers) backfilled into whatever slots are idle and preempted the moment
// a primary job wants the slot back.
//
// This is the mechanism Section I describes — "workers can be deployed by
// submitting many small pilot jobs to take advantage of the backfilling
// strategy commonly seen in large batch systems ... and utilize unused
// resources as they become available over time" — and it produces exactly
// the opportunistic arrival/eviction schedules the workflow simulator
// consumes: Cluster implements opportunistic.Model.
package condor

import (
	"fmt"
	"math"
	"sort"

	"dynalloc/internal/devent"
	"dynalloc/internal/dist"
	"dynalloc/internal/opportunistic"
)

// Cluster describes the batch system. The zero value is not useful; fill
// the fields or use DefaultCluster.
type Cluster struct {
	// Slots is the total number of worker-shaped slots in the cluster.
	Slots int
	// PrimaryLoad is the long-run fraction of slots occupied by primary
	// (non-pilot) jobs, in [0, 1).
	PrimaryLoad float64
	// PrimaryMeanDuration is the mean runtime of a primary job in seconds.
	PrimaryMeanDuration float64
	// PilotTarget is how many pilot jobs the workflow keeps in the queue;
	// at most this many workers run concurrently.
	PilotTarget int
	// SubmitDelay is the batch-system latency between a slot opening and a
	// pilot starting in it, in seconds.
	SubmitDelay float64
	// Horizon is how long pilots keep being (re)submitted, in seconds.
	Horizon float64
}

// DefaultCluster mirrors the paper's environment: enough slots for 50
// concurrent workers under a 60%-utilized cluster, pilots resubmitted for a
// day.
func DefaultCluster() Cluster {
	return Cluster{
		Slots:               125,
		PrimaryLoad:         0.6,
		PrimaryMeanDuration: 3600,
		PilotTarget:         50,
		SubmitDelay:         30,
		Horizon:             86400,
	}
}

// Name implements opportunistic.Model.
func (c Cluster) Name() string {
	return fmt.Sprintf("condor(slots=%d, load=%.0f%%, pilots=%d)",
		c.Slots, 100*c.PrimaryLoad, c.PilotTarget)
}

// validate normalizes degenerate configurations.
func (c Cluster) validate() Cluster {
	if c.Slots <= 0 {
		c.Slots = 1
	}
	if c.PrimaryLoad < 0 {
		c.PrimaryLoad = 0
	}
	if c.PrimaryLoad > 0.95 {
		c.PrimaryLoad = 0.95
	}
	if c.PrimaryMeanDuration <= 0 {
		c.PrimaryMeanDuration = 3600
	}
	if c.PilotTarget <= 0 {
		c.PilotTarget = 1
	}
	if c.SubmitDelay <= 0 {
		// A zero submit delay would let a blocked pilot retry at the same
		// virtual instant forever.
		c.SubmitDelay = 30
	}
	if c.Horizon <= 0 {
		c.Horizon = 86400
	}
	return c
}

// event kinds of the internal batch-system timeline.
const (
	evPrimaryArrive devent.Kind = iota
	evPrimaryFinish
	evPilotStart
)

// Schedule implements opportunistic.Model: it plays the batch-system
// timeline up to the horizon and emits one Arrival per pilot placement, with
// the lifetime set by the preemption that ended it (or 0 when the pilot
// survives to the horizon).
func (c Cluster) Schedule(seed uint64) []opportunistic.Arrival {
	c = c.validate()
	r := dist.NewRand(seed)

	// Little's law: with mean duration D and target utilization u over S
	// slots, primary jobs must arrive at rate u·S/D.
	arrivalRate := c.PrimaryLoad * float64(c.Slots) / c.PrimaryMeanDuration
	nextPrimaryGap := func() float64 {
		if arrivalRate <= 0 {
			return math.Inf(1)
		}
		return r.ExpFloat64() / arrivalRate
	}

	var eng devent.Engine
	push := func(at float64, kind devent.Kind) { eng.Schedule(at, kind, devent.Payload{}) }

	// State: slot accounting plus the start times of running pilots (the
	// youngest pilot is preempted first, matching HTCondor's preference for
	// keeping long-running jobs).
	primaryRunning := 0
	pilotStarts := []float64{} // sorted ascending by start time
	var out []opportunistic.Arrival
	pilotIdx := map[int]int{} // index into pilotStarts -> index into out
	free := func() int { return c.Slots - primaryRunning - len(pilotStarts) }

	eng.SetHandler(func(kind devent.Kind, _ devent.Payload) {
		now := eng.Now()
		switch kind {
		case evPrimaryArrive:
			// Schedule the next arrival first.
			push(now+nextPrimaryGap(), evPrimaryArrive)
			if primaryRunning >= c.Slots {
				break // cluster saturated with primaries; job balks
			}
			if free() <= 0 && len(pilotStarts) > 0 {
				// Preempt the youngest pilot.
				last := len(pilotStarts) - 1
				started := pilotStarts[last]
				out[pilotIdx[last]].Lifetime = now - started
				delete(pilotIdx, last)
				pilotStarts = pilotStarts[:last]
				// The workflow resubmits a replacement pilot.
				push(now+c.SubmitDelay*(0.5+r.Float64()), evPilotStart)
			}
			primaryRunning++
			push(now+r.ExpFloat64()*c.PrimaryMeanDuration, evPrimaryFinish)
		case evPrimaryFinish:
			primaryRunning--
		case evPilotStart:
			if len(pilotStarts) >= c.PilotTarget {
				break // target already met
			}
			if free() <= 0 {
				// No hole to backfill into; retry later.
				push(now+c.SubmitDelay*(1+r.Float64()), evPilotStart)
				break
			}
			pilotIdx[len(pilotStarts)] = len(out)
			pilotStarts = append(pilotStarts, now)
			out = append(out, opportunistic.Arrival{At: now})
		}
	})

	// Seed the timeline: the primary load is warmed up by starting
	// load*Slots primary jobs at t=0 with residual lifetimes, then pilots
	// are submitted.
	warm := int(c.PrimaryLoad * float64(c.Slots))
	for i := 0; i < warm; i++ {
		primaryRunning++
		push(r.ExpFloat64()*c.PrimaryMeanDuration, evPrimaryFinish)
	}
	if g := nextPrimaryGap(); !math.IsInf(g, 1) {
		push(g, evPrimaryArrive)
	}
	for i := 0; i < c.PilotTarget; i++ {
		push(c.SubmitDelay*(0.5+r.Float64()), evPilotStart)
	}

	eng.RunUntil(c.Horizon)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

var _ opportunistic.Model = Cluster{}
