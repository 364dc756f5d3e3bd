package main

import (
	"bufio"
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"dynalloc/internal/runlog"
	"dynalloc/internal/wq"
)

// buildManager builds wq-manager into a temporary directory.
func buildManager(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the wq-manager binary")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command to build wq-manager with")
	}
	bin := filepath.Join(t.TempDir(), "wq-manager")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// manager is a started wq-manager process: its stdout lines as they come,
// and its stderr.
type manager struct {
	cmd    *exec.Cmd
	lines  chan string
	stderr bytes.Buffer
}

// startManager starts the binary with args and returns once it has printed
// the address it listens on.
func startManager(t *testing.T, bin string, args ...string) (*manager, string) {
	t.Helper()
	// 256 lines is more than a run of these sizes prints, so the scanner
	// never waits on a test that has stopped reading.
	m := &manager{cmd: exec.Command(bin, args...), lines: make(chan string, 256)}
	m.cmd.Stderr = &m.stderr
	stdout, err := m.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.cmd.Process.Kill() })
	go func() {
		defer close(m.lines)
		for sc := bufio.NewScanner(stdout); sc.Scan(); {
			m.lines <- sc.Text()
		}
	}()
	select {
	case line := <-m.lines:
		addr, _, ok := strings.Cut(strings.TrimPrefix(line, "manager listening on "), ";")
		if !ok || addr == line {
			t.Fatalf("first line %q does not give the listening address", line)
		}
		return m, addr
	case <-time.After(10 * time.Second):
		t.Fatal("wq-manager never said where it listens")
	}
	return nil, ""
}

// wait collects the rest of stdout and the exit error.
func (m *manager) wait(t *testing.T) (string, error) {
	t.Helper()
	var out []string
	timeout := time.After(30 * time.Second)
	for {
		select {
		case line, ok := <-m.lines:
			if !ok {
				return strings.Join(out, "\n"), m.cmd.Wait()
			}
			out = append(out, line)
		case <-timeout:
			t.Fatalf("wq-manager still running after 30 s; stdout so far:\n%s", strings.Join(out, "\n"))
		}
	}
}

// TestManagerRunsWorkflowOnTwoWorkers runs the built manager on 40 tasks with
// two in-process workers: it exits 0 after reporting every task and its
// result batching, both workers are shut down cleanly, and the run log it
// wrote parses as a live run of 40 tasks.
func TestManagerRunsWorkflowOnTwoWorkers(t *testing.T) {
	bin := buildManager(t)
	logPath := filepath.Join(t.TempDir(), "live.jsonl")
	m, addr := startManager(t, bin,
		"-addr", "127.0.0.1:0", "-tasks", "40", "-min-workers", "2", "-heartbeat", "0", "-log", logPath)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errs := make(chan error, 2)
	for range 2 {
		go func() { errs <- wq.RunWorker(ctx, addr, wq.WorkerConfig{TimeScale: 1e-12}) }()
	}

	out, err := m.wait(t)
	if err != nil {
		t.Fatalf("wq-manager: %v, want exit 0\nstdout:\n%s\nstderr:\n%s", err, out, m.stderr.String())
	}
	for _, want := range []string{"completed 40 tasks", "results_per_batch="} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout lacks %q:\n%s", want, out)
		}
	}
	for range 2 {
		if err := <-errs; err != nil {
			t.Errorf("worker: %v, want nil once the manager shuts it down", err)
		}
	}

	f, err := os.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lg, err := runlog.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if lg.Header.Driver != runlog.DriverWQ || len(lg.Outcomes) != 40 {
		t.Errorf("run log: driver %q with %d task records, want %q with 40", lg.Header.Driver, len(lg.Outcomes), runlog.DriverWQ)
	}
}

// TestManagerSIGTERMWhileWaitingForWorkers: a SIGTERM before enough workers
// have joined ends the wait, and the manager exits non-zero saying so.
func TestManagerSIGTERMWhileWaitingForWorkers(t *testing.T) {
	bin := buildManager(t)
	m, _ := startManager(t, bin, "-addr", "127.0.0.1:0", "-tasks", "40", "-min-workers", "2", "-heartbeat", "0")
	if err := m.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	out, err := m.wait(t)
	if _, ok := err.(*exec.ExitError); !ok {
		t.Fatalf("wq-manager after SIGTERM: %v, want a non-zero exit\nstdout:\n%s", err, out)
	}
	if !strings.Contains(m.stderr.String(), "wq-manager: waiting for workers:") {
		t.Errorf("stderr %q, want it to say the wait for workers ended", m.stderr.String())
	}
}
