package runlog

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dynalloc/internal/allocator"
	"dynalloc/internal/opportunistic"
	"dynalloc/internal/sim"
	"dynalloc/internal/workflow"
)

// recordDES runs one workload through the DES on a churny pool and returns
// the run log text plus the original result.
func recordDES(t *testing.T, wfName string, seed uint64, alg allocator.Name) (string, *sim.Result) {
	t.Helper()
	w, err := workflow.ByName(wfName, 120, seed)
	if err != nil {
		t.Fatal(err)
	}
	pol := allocator.MustNew(alg, allocator.Config{Seed: seed})
	cfg := sim.Config{
		Workflow: w,
		Policy:   pol,
		Pool:     opportunistic.Churn{Initial: 6, MeanLifetime: 500, MeanInterval: 100, Horizon: 1500, KeepLastAlive: true},
		PoolSeed: seed,
	}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hdr := SimHeader(DriverDES, w.Name, pol.Name(), seed, cfg, w.SubmitWindow, w.Barriers)
	var buf bytes.Buffer
	if err := Write(&buf, hdr, res); err != nil {
		t.Fatal(err)
	}
	return buf.String(), res
}

// The round-trip fidelity property: sim → runlog → TraceSource replay under
// the original allocator reproduces the recorded footer summary
// bit-identically, across workloads and seeds. The engine is deterministic
// given (tasks, policy+seed, pool schedule, model, placement) and the
// format-2 header plus worker lines pin all of them; JSON round-trips
// float64 exactly, so anything short of equality is a replay bug.
func TestReplayFidelityDES(t *testing.T) {
	for _, wfName := range []string{"normal", "bimodal", "exponential"} {
		for _, seed := range []uint64{7, 99} {
			t.Run(fmt.Sprintf("%s-%d", wfName, seed), func(t *testing.T) {
				text, res := recordDES(t, wfName, seed, allocator.Greedy)
				log, err := Read(strings.NewReader(text))
				if err != nil {
					t.Fatal(err)
				}
				if len(log.Workers) == 0 {
					t.Fatal("DES log recorded no worker lines")
				}
				if last := log.Outcomes[len(log.Outcomes)-1]; last.DoneTime <= 0 {
					t.Fatal("DES log recorded no virtual completion times")
				}
				replayed, err := ResimulateAs(context.Background(), log, log.Header.Algorithm)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := replayed.Summary(), log.Footer.Summary; !reflect.DeepEqual(got, want) {
					t.Errorf("replayed summary diverged:\n got %+v\nwant %+v", got, want)
				}
				if replayed.Makespan != res.Makespan {
					t.Errorf("replayed makespan = %v, want %v", replayed.Makespan, res.Makespan)
				}
				if replayed.Evictions != res.Evictions {
					t.Errorf("replayed evictions = %v, want %v", replayed.Evictions, res.Evictions)
				}
			})
		}
	}
}

// Same property for the sequential driver: a v2 sequential log replays
// through Materialize + RunSequentialContext bit-identically.
func TestReplayFidelitySequential(t *testing.T) {
	seed := uint64(11)
	w, err := workflow.ByName("uniform", 150, seed)
	if err != nil {
		t.Fatal(err)
	}
	pol := allocator.MustNew(allocator.MaxSeen, allocator.Config{Seed: seed})
	res, err := sim.RunSequential(w, pol, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	hdr := SimHeader(DriverSequential, w.Name, pol.Name(), seed, sim.Config{}, w.SubmitWindow, w.Barriers)
	var buf bytes.Buffer
	if err := Write(&buf, hdr, res); err != nil {
		t.Fatal(err)
	}
	log, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := ResimulateAs(context.Background(), log, log.Header.Algorithm)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := replayed.Summary(), log.Footer.Summary; !reflect.DeepEqual(got, want) {
		t.Errorf("replayed summary diverged:\n got %+v\nwant %+v", got, want)
	}
	if replayed.Makespan != res.Makespan {
		t.Errorf("replayed makespan = %v, want %v", replayed.Makespan, res.Makespan)
	}
}

// A truncated log (footer and tail task lines lost) still replays end to
// end: the surviving prefix of the task stream runs to completion. The
// replay is not expected to match any recorded summary — the missing tail
// tasks changed worker occupancy for the ones that remain — only to
// succeed and cover exactly the surviving tasks.
func TestReplayTruncatedLog(t *testing.T) {
	text, _ := recordDES(t, "normal", 7, allocator.Greedy)
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	cut := len(lines) / 2
	truncated := strings.Join(lines[:cut], "\n") + "\n"
	log, err := Read(strings.NewReader(truncated))
	if err != nil {
		t.Fatalf("truncated log must parse: %v", err)
	}
	if log.Footer != nil {
		t.Fatal("test construction error: footer survived the cut")
	}
	if len(log.Outcomes) == 0 {
		t.Skip("cut landed before the first task line")
	}
	replayed, err := ResimulateAs(context.Background(), log, log.Header.Algorithm)
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Acc.Tasks() != len(log.Outcomes) {
		t.Errorf("replayed %d tasks, want %d (the surviving prefix)",
			replayed.Acc.Tasks(), len(log.Outcomes))
	}
}

// TraceSource must pass through the recorded window and barriers: both
// change scheduling, so dropping them would silently break fidelity on
// windowed/barriered workloads.
func TestTraceSourceShape(t *testing.T) {
	log := &Log{
		Header:   Header{Workload: "shaped", Window: 4, Barriers: []int{2, 5}},
		Outcomes: someOutcomes(6),
	}
	src, err := TraceSource(log)
	if err != nil {
		t.Fatal(err)
	}
	if src.SubmitWindow() != 4 {
		t.Errorf("window = %d, want 4", src.SubmitWindow())
	}
	if b := src.NextBarrier(0); b != 2 {
		t.Errorf("NextBarrier(0) = %d, want 2", b)
	}
	if b := src.NextBarrier(2); b != 5 {
		t.Errorf("NextBarrier(2) = %d, want 5", b)
	}
	if b := src.NextBarrier(5); b != -1 {
		t.Errorf("NextBarrier(5) = %d, want -1", b)
	}
	n := 0
	for {
		task, ok := src.Next()
		if !ok {
			break
		}
		if task.ID != n {
			t.Errorf("task %d has ID %d", n, task.ID)
		}
		n++
	}
	if n != 6 {
		t.Errorf("source yielded %d tasks, want 6", n)
	}
}

// ScriptedPool prefers explicit worker lines and falls back to deriving the
// schedule from a live run's worker-join / worker-lost event timeline,
// rebased to the earliest event.
func TestScriptedPoolFromEvents(t *testing.T) {
	base := int64(1_000_000_000_000)
	log := &Log{
		Header: Header{Driver: DriverWQ},
		Events: []EventRecord{
			{TimeNS: base, Event: "worker-join", WorkerID: 0, TaskID: -1},
			{TimeNS: base + 2_000_000_000, Event: "worker-join", WorkerID: 1, TaskID: -1},
			{TimeNS: base + 5_000_000_000, Event: "worker-lost", WorkerID: 0, TaskID: -1},
			{TimeNS: base + 6_000_000_000, Event: "dispatch", WorkerID: 1, TaskID: 3},
		},
	}
	pool, err := ScriptedPool(log)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := pool.Schedule(12345) // seed must be ignored
	if len(arrivals) != 2 {
		t.Fatalf("%d arrivals, want 2", len(arrivals))
	}
	if arrivals[0].At != 0 || arrivals[0].Lifetime != 5 {
		t.Errorf("worker 0 arrival = %+v, want {0 5}", arrivals[0])
	}
	if arrivals[1].At != 2 || arrivals[1].Lifetime != 0 {
		t.Errorf("worker 1 arrival = %+v, want {2 0} (never lost = forever)", arrivals[1])
	}

	if _, err := ScriptedPool(&Log{Header: Header{Driver: DriverDES}}); err == nil {
		t.Fatal("a log with neither worker lines nor worker events must not yield a pool")
	}
}

// Data-layer runs record no staging times; replay must refuse them loudly
// instead of producing silently wrong durations.
func TestResimulateRejectsDataLayer(t *testing.T) {
	log := &Log{
		Header:   Header{Driver: DriverDES, DataLayer: true, Algorithm: string(allocator.Greedy)},
		Outcomes: someOutcomes(2),
	}
	pol := allocator.MustNew(allocator.Greedy, allocator.Config{})
	if _, err := Resimulate(context.Background(), log, pol); err == nil {
		t.Fatal("data-layer trace replay must error")
	}
}
