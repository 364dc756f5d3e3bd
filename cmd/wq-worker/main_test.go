package main

import (
	"bufio"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dynalloc/internal/allocator"
	"dynalloc/internal/metrics"
	"dynalloc/internal/resources"
	"dynalloc/internal/workflow"
	"dynalloc/internal/wq"
)

// buildWorker builds wq-worker into a temporary directory.
func buildWorker(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the wq-worker binary")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command to build wq-worker with")
	}
	bin := filepath.Join(t.TempDir(), "wq-worker")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestWorkerRunsTasksAndShutsDown points the built worker at an in-process
// manager, which runs 200 tasks on it and then closes: the worker is told to
// shut down, says so, and exits 0.
func TestWorkerRunsTasksAndShutsDown(t *testing.T) {
	bin := buildWorker(t)
	capacity := resources.New(16, 64*1024, 64*1024, resources.Unlimited)
	m := wq.NewManager(allocator.MustNew(allocator.MaxSeen, allocator.Config{Capacity: capacity, Seed: 1}),
		wq.WithDrainTimeout(2*time.Second))
	defer m.Close()
	addr, err := m.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(bin, "-addr", addr, "-timescale", "1e-12")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	lines := make(chan string, 64)
	go func() {
		defer close(lines)
		for sc := bufio.NewScanner(stdout); sc.Scan(); {
			lines <- sc.Text()
		}
	}()
	for deadline := time.Now().Add(10 * time.Second); m.Workers() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the worker never registered")
		}
	}

	const n = 200
	task := workflow.Task{Category: "c", Consumption: resources.New(1, 100, 100, 10)}
	outcomes := make([]<-chan metrics.TaskOutcome, n)
	for i := range outcomes {
		outcomes[i] = m.Submit(task)
	}
	timeout := time.After(10 * time.Second)
	for i, ch := range outcomes {
		select {
		case o := <-ch:
			if last := o.Attempts[len(o.Attempts)-1]; last.Status != metrics.Success {
				t.Fatalf("task %d ended %v, want a success", i, last.Status)
			}
		case <-timeout:
			t.Fatalf("%d of %d tasks completed", i, n)
		}
	}

	m.Close()
	var out []string
	for line := range lines {
		out = append(out, line)
	}
	if err := cmd.Wait(); err != nil {
		t.Errorf("wq-worker after the manager closed: %v, want exit 0", err)
	}
	if k := len(out); k == 0 || out[k-1] != "worker shut down" {
		t.Errorf("wq-worker's output:\n%s\nwant it to end with worker shut down", strings.Join(out, "\n"))
	}
}

// TestBadFlagExitsNonZero: a flag the worker does not know stops it before
// it dials anything.
func TestBadFlagExitsNonZero(t *testing.T) {
	bin := buildWorker(t)
	out, err := exec.Command(bin, "-no-such-flag").CombinedOutput()
	if _, ok := err.(*exec.ExitError); !ok {
		t.Fatalf("wq-worker -no-such-flag: %v, want a non-zero exit\n%s", err, out)
	}
	if !strings.Contains(string(out), "no-such-flag") {
		t.Errorf("wq-worker -no-such-flag printed %q, want it to name the flag", out)
	}
}
