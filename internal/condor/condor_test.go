package condor

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
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

// scheduleFingerprint hashes every arrival's time and lease, bit-exact.
func scheduleFingerprint(arr []opportunistic.Arrival) string {
	h := sha256.New()
	var b [8]byte
	for _, a := range arr {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(a.At))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(a.Lifetime))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestScheduleFingerprints pins Cluster.Schedule bit for bit: the default
// cluster at three seeds, a small saturated cluster whose pilots are
// preempted and resubmitted all day, and an idle one with no primary jobs.
func TestScheduleFingerprints(t *testing.T) {
	busy := Cluster{Slots: 40, PrimaryLoad: 0.9, PrimaryMeanDuration: 1800,
		PilotTarget: 20, SubmitDelay: 15, Horizon: 43200}
	idle := Cluster{Slots: 60, PrimaryLoad: 0, PrimaryMeanDuration: 3600,
		PilotTarget: 50, SubmitDelay: 30, Horizon: 86400}
	for _, tc := range []struct {
		c    Cluster
		seed uint64
		n    int
		want string
	}{
		{DefaultCluster(), 1, 1073, "658e8f9d0075234423d64e2d3aff55d7c1154b1f8908545b847c27cddf19ae2e"},
		{DefaultCluster(), 7, 860, "570410435115fb30596aa6c166b5c08bb04e16353431ceb042d7a484b558596e"},
		{DefaultCluster(), 42, 822, "449e4c68513949925095e2ef5d507a7aa2d0af9aadc0cf76000c3f41e3842d6c"},
		{busy, 1, 810, "6f3a28a2e6d0999033fd047d59f4d97420d8ccc4d4a90375706b49e49f6ae2e6"},
		{busy, 3, 805, "3634237725c5e0203c0764c02608ce78e9fb6e6b438493f155fee8a69bab7f4d"},
		{idle, 1, 50, "ef0947e7d77e17a79d5cab630e3ba90770bc107b9d17d745a1a38a08cedb01e1"},
	} {
		arr := tc.c.Schedule(tc.seed)
		if got := scheduleFingerprint(arr); len(arr) != tc.n || got != tc.want {
			t.Errorf("%+v seed %d: %d arrivals, fingerprint %s; want %d, %s", tc.c, tc.seed, len(arr), got, tc.n, tc.want)
		}
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
