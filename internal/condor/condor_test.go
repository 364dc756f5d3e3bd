package condor

import (
	"sort"
	"testing"
	"time"

	"dynalloc/internal/opportunistic"
	"dynalloc/internal/sim"
	"dynalloc/internal/workflow"
)

// maxConcurrent replays a schedule and returns the peak number of pilots
// alive at once.
func maxConcurrent(arr []opportunistic.Arrival) int {
	type edge struct {
		at float64
		d  int
	}
	var edges []edge
	for _, a := range arr {
		edges = append(edges, edge{a.At, +1})
		if a.Lifetime > 0 {
			edges = append(edges, edge{a.At + a.Lifetime, -1})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].d < edges[j].d // process departures first at ties
	})
	cur, peak := 0, 0
	for _, e := range edges {
		cur += e.d
		if cur > peak {
			peak = cur
		}
	}
	return peak
}

func TestIdleClusterRunsFullPilotTarget(t *testing.T) {
	c := Cluster{Slots: 60, PrimaryLoad: 0, PrimaryMeanDuration: 3600,
		PilotTarget: 50, SubmitDelay: 30, Horizon: 86400}
	arr := c.Schedule(1)
	if len(arr) != 50 {
		t.Fatalf("idle cluster placed %d pilots, want 50", len(arr))
	}
	for _, a := range arr {
		if a.Lifetime != 0 {
			t.Fatalf("idle cluster evicted a pilot: %+v", a)
		}
		if a.At > 100 {
			t.Fatalf("pilot start %v too late for an idle cluster", a.At)
		}
	}
}

func TestBusyClusterEvictsAndReplaces(t *testing.T) {
	c := DefaultCluster()
	arr := c.Schedule(2)
	if len(arr) <= c.PilotTarget {
		t.Fatalf("busy cluster placed only %d pilots; expected preemptions and replacements", len(arr))
	}
	evicted := 0
	for _, a := range arr {
		if a.Lifetime < 0 {
			t.Fatalf("negative lifetime: %+v", a)
		}
		if a.Lifetime > 0 {
			evicted++
		}
	}
	if evicted == 0 {
		t.Error("no pilot was ever preempted on a 60%-loaded cluster")
	}
}

func TestConcurrencyNeverExceedsPilotTarget(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		c := Cluster{Slots: 40, PrimaryLoad: 0.7, PrimaryMeanDuration: 1800,
			PilotTarget: 20, SubmitDelay: 15, Horizon: 43200}
		arr := c.Schedule(seed)
		if got := maxConcurrent(arr); got > c.PilotTarget {
			t.Fatalf("seed %d: %d concurrent pilots, target %d", seed, got, c.PilotTarget)
		}
	}
}

func TestScheduleSortedAndDeterministic(t *testing.T) {
	c := DefaultCluster()
	a := c.Schedule(7)
	b := c.Schedule(7)
	if len(a) != len(b) {
		t.Fatal("same seed, different schedule lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different schedules")
		}
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i].At < a[j].At }) {
		t.Error("schedule not sorted by arrival time")
	}
}

func TestValidateDegenerateConfigs(t *testing.T) {
	// Regression: a zero SubmitDelay used to retry blocked pilots at the
	// same virtual instant forever, hanging Schedule.
	c := Cluster{Slots: -1, PrimaryLoad: 2, PrimaryMeanDuration: -5, PilotTarget: 0}
	done := make(chan []opportunistic.Arrival, 1)
	go func() { done <- c.Schedule(3) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Schedule hung on a degenerate configuration")
	}
	v := c.validate()
	if v.Slots != 1 || v.PrimaryLoad != 0.95 || v.PilotTarget != 1 || v.SubmitDelay != 30 {
		t.Errorf("validate() = %+v", v)
	}
}

func TestClusterDrivesWorkflowSimulation(t *testing.T) {
	w, err := workflow.ByName("uniform", 200, 4)
	if err != nil {
		t.Fatal(err)
	}
	c := Cluster{Slots: 30, PrimaryLoad: 0.5, PrimaryMeanDuration: 1200,
		PilotTarget: 12, SubmitDelay: 20, Horizon: 1e7}
	res, err := sim.Run(sim.Config{
		Workflow: w,
		Policy:   sim.NewOracle(w),
		Pool:     c,
		PoolSeed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 200 {
		t.Fatalf("completed %d tasks", len(res.Outcomes))
	}
	if res.PeakWorkers > c.PilotTarget {
		t.Errorf("peak workers %d exceeded pilot target %d", res.PeakWorkers, c.PilotTarget)
	}
}

func TestName(t *testing.T) {
	if DefaultCluster().Name() == "" {
		t.Error("empty name")
	}
}

// BenchmarkCondorSchedule generates a day of batch-system activity for a
// 125-slot cluster.
func BenchmarkCondorSchedule(b *testing.B) {
	c := DefaultCluster()
	for i := 0; i < b.N; i++ {
		if len(c.Schedule(uint64(i))) == 0 {
			b.Fatal("empty schedule")
		}
	}
}
