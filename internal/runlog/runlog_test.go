package runlog

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"dynalloc/internal/allocator"
	"dynalloc/internal/metrics"
	"dynalloc/internal/opportunistic"
	"dynalloc/internal/resources"
	"dynalloc/internal/sim"
	"dynalloc/internal/workflow"
)

func sampleRun(t *testing.T) (*sim.Result, Header) {
	t.Helper()
	w, err := workflow.ByName("bimodal", 80, 1)
	if err != nil {
		t.Fatal(err)
	}
	pol := allocator.MustNew(allocator.Greedy, allocator.Config{Seed: 2})
	res, err := sim.Run(sim.Config{Workflow: w, Policy: pol, Pool: opportunistic.Static{N: 5}})
	if err != nil {
		t.Fatal(err)
	}
	return res, Header{Workload: "bimodal", Algorithm: pol.Name(), Seed: 1}
}

func TestWriteReadRoundTrip(t *testing.T) {
	res, hdr := sampleRun(t)
	var buf bytes.Buffer
	if err := Write(&buf, hdr, res); err != nil {
		t.Fatal(err)
	}
	log, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if log.Header.Workload != "bimodal" || log.Header.Algorithm != "greedy-bucketing" {
		t.Errorf("header = %+v", log.Header)
	}
	if log.Header.Tasks != 80 || len(log.Outcomes) != 80 {
		t.Fatalf("tasks = %d / %d", log.Header.Tasks, len(log.Outcomes))
	}
	if log.Footer == nil {
		t.Fatal("missing footer")
	}

	// Replaying the raw attempts must reproduce the footer's metrics.
	acc := Replay(log)
	for _, k := range resources.AllocatedKinds() {
		orig := res.Acc.AWE(k)
		replayed := acc.AWE(k)
		if math.Abs(orig-replayed) > 1e-9 {
			t.Errorf("AWE(%s): original %v, replayed %v", k, orig, replayed)
		}
		if math.Abs(res.Acc.Waste(k)-acc.Waste(k)) > 1e-6 {
			t.Errorf("waste(%s) mismatch", k)
		}
	}
	if acc.Retries() != res.Acc.Retries() {
		t.Errorf("retries: %d vs %d", acc.Retries(), res.Acc.Retries())
	}
}

func TestReadTruncatedLog(t *testing.T) {
	res, hdr := sampleRun(t)
	var buf bytes.Buffer
	if err := Write(&buf, hdr, res); err != nil {
		t.Fatal(err)
	}
	// Drop the footer line.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	truncated := strings.Join(lines[:len(lines)-1], "\n")
	log, err := Read(strings.NewReader(truncated))
	if err != nil {
		t.Fatal(err)
	}
	if log.Footer != nil {
		t.Error("truncated log should have no footer")
	}
	if len(log.Outcomes) != 80 {
		t.Errorf("outcomes = %d", len(log.Outcomes))
	}
}

// TestReadTornTail reads a log whose last line a kill cut short: that line is
// dropped and counted, and everything before it is kept. The same cut line
// with its newline is corruption, not a torn write, and stays an error.
func TestReadTornTail(t *testing.T) {
	res, hdr := sampleRun(t)
	var buf bytes.Buffer
	if err := Write(&buf, hdr, res); err != nil {
		t.Fatal(err)
	}
	if log, err := Read(bytes.NewReader(buf.Bytes())); err != nil || log.TornLines != 0 {
		t.Fatalf("whole log: %v, torn lines %d", err, log.TornLines)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	footer := lines[len(lines)-1]
	torn := strings.Join(lines[:len(lines)-1], "\n") + "\n" + footer[:len(footer)/2]
	log, err := Read(strings.NewReader(torn))
	if err != nil {
		t.Fatalf("torn tail: %v", err)
	}
	if log.TornLines != 1 || log.Footer != nil || len(log.Outcomes) != 80 {
		t.Errorf("torn tail: %d torn lines, footer %v, %d outcomes; want 1, nil, 80", log.TornLines, log.Footer, len(log.Outcomes))
	}
	if _, err := Read(strings.NewReader(torn + "\n")); err == nil {
		t.Error("a malformed last line with its newline was accepted")
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"no header":    `{"kind":"task","id":1}`,
		"bad json":     "{nope",
		"unknown kind": `{"kind":"mystery"}`,
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestStatusRoundTrip(t *testing.T) {
	tr := TaskRecord{
		ID: 1, Category: "c", Cores: 1, MemoryMB: 100, DiskMB: 10, Runtime: 5,
		Attempts: []AttemptRecord{
			{Cores: 1, MemoryMB: 50, DiskMB: 10, Duration: 2, Status: "exhausted"},
			{Cores: 1, MemoryMB: 100, DiskMB: 10, Duration: 1, Status: "evicted"},
			{Cores: 1, MemoryMB: 100, DiskMB: 10, Duration: 5, Status: "success"},
		},
	}
	o := tr.outcome()
	if o.Retries() != 1 {
		t.Errorf("retries = %d", o.Retries())
	}
	if o.EvictedTime() != 1 {
		t.Errorf("evicted time = %v", o.EvictedTime())
	}
	if o.FinalAlloc().Get(resources.Memory) != 100 {
		t.Errorf("final alloc = %v", o.FinalAlloc())
	}
}

func TestEventLinesRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Workload: "live", Algorithm: "exhaustive", Seed: 7, Tasks: 1})
	if err != nil {
		t.Fatal(err)
	}
	events := []EventRecord{
		{TimeNS: 100, Event: "worker-join", TaskID: -1, WorkerID: 0},
		{TimeNS: 200, Event: "dispatch", TaskID: 1, WorkerID: 0},
		{TimeNS: 300, Event: "result", TaskID: 1, WorkerID: 0, Status: "success"},
		{TimeNS: 400, Event: "drain-end", TaskID: -1, WorkerID: -1, Detail: "in_flight=0"},
	}
	for _, ev := range events {
		if err := w.Event(ev); err != nil {
			t.Fatal(err)
		}
	}
	if w.Events() != len(events) {
		t.Errorf("writer events = %d, want %d", w.Events(), len(events))
	}
	res := &sim.Result{Outcomes: []metrics.TaskOutcome{{
		TaskID: 1, Category: "c", Peak: resources.New(1, 100, 10, 5), Runtime: 5,
		Attempts: []metrics.Attempt{{Alloc: resources.New(1, 100, 10, resources.Unlimited), Duration: 5, Status: metrics.Success}},
	}}}
	res.Acc.Add(res.Outcomes[0])
	if err := w.Finish(res); err != nil {
		t.Fatal(err)
	}

	log, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Events) != len(events) {
		t.Fatalf("events = %d, want %d", len(log.Events), len(events))
	}
	for i, ev := range log.Events {
		if ev.Event != events[i].Event || ev.TimeNS != events[i].TimeNS ||
			ev.TaskID != events[i].TaskID || ev.WorkerID != events[i].WorkerID {
			t.Errorf("event %d = %+v, want %+v", i, ev, events[i])
		}
	}
	if len(log.Outcomes) != 1 || log.Footer == nil {
		t.Fatalf("outcomes/footer lost: %d outcomes", len(log.Outcomes))
	}
}

func TestFailedStatusRoundTrip(t *testing.T) {
	tr := TaskRecord{
		ID: 1, Category: "c", Cores: 1, MemoryMB: 500, DiskMB: 10, Runtime: 5,
		Attempts: []AttemptRecord{
			{Cores: 1, MemoryMB: 100, DiskMB: 10, Duration: 2, Status: "exhausted"},
			{Cores: 1, MemoryMB: 100, DiskMB: 10, Status: "failed"},
		},
	}
	o := tr.outcome()
	if o.Succeeded() {
		t.Error("failed task reports success")
	}
	if got := o.Attempts[1].Status; got != metrics.Failed {
		t.Errorf("status = %v, want failed", got)
	}
	var acc metrics.Accumulator
	acc.Add(o)
	if acc.Failures() != 1 {
		t.Errorf("failures = %d, want 1", acc.Failures())
	}
}
