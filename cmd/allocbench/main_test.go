package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildAllocbench builds allocbench into a temporary directory.
func buildAllocbench(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the allocbench binary")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command to build allocbench with")
	}
	bin := filepath.Join(t.TempDir(), "allocbench")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// runAllocbench runs the built binary with args and returns its stdout,
// stderr and exit code.
func runAllocbench(t *testing.T, bin string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errOut bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatalf("allocbench %s: %v", strings.Join(args, " "), err)
	}
	return out.String(), errOut.String(), code
}

// TestAllocbenchRunsInProcess drives an in-process server: every tenant's
// counters account for every task of every connection, through single
// calls and through a pipelined, batched connection.
func TestAllocbenchRunsInProcess(t *testing.T) {
	bin := buildAllocbench(t)
	for _, c := range []struct {
		args    []string
		tenants int
		want    []string
	}{
		{[]string{"-tenants", "2", "-conns", "2", "-tasks", "150"}, 2, []string{"allocates=300 ", "observes=300 "}},
		{[]string{"-tenants", "1", "-conns", "1", "-tasks", "200", "-pipeline", "4", "-batch", "8"}, 1, []string{"allocates=200 ", "observes=200 "}},
	} {
		out, errOut, code := runAllocbench(t, bin, c.args...)
		if code != 0 || !strings.Contains(out, "allocs/sec") {
			t.Fatalf("allocbench %s: exit %d, want 0 and a rate\nstdout:\n%s\nstderr:\n%s", strings.Join(c.args, " "), code, out, errOut)
		}
		rows := 0
		for _, line := range strings.Split(out, "\n") {
			if !strings.Contains(line, "bench-") || !strings.Contains(line, "allocates=") {
				continue
			}
			rows++
			for _, w := range c.want {
				if !strings.Contains(line, w) {
					t.Errorf("allocbench %s: tenant row %q lacks %q", strings.Join(c.args, " "), line, w)
				}
			}
		}
		if rows != c.tenants {
			t.Errorf("allocbench %s: %d tenant rows, want %d\n%s", strings.Join(c.args, " "), rows, c.tenants, out)
		}
	}
}

// TestAllocbenchRefusesEmptyRuns: a count flag below 1 would measure
// nothing, so it exits 2 naming the flag instead of printing a rate.
func TestAllocbenchRefusesEmptyRuns(t *testing.T) {
	bin := buildAllocbench(t)
	for _, args := range [][]string{
		{"-tenants", "0"}, {"-conns", "0"}, {"-tasks", "0"}, {"-tasks", "-5"}, {"-pipeline", "0"}, {"-batch", "0"},
	} {
		out, errOut, code := runAllocbench(t, bin, args...)
		if code != 2 || !strings.HasPrefix(errOut, "allocbench: "+args[0]+" must be at least 1") || strings.Contains(out, "allocs/sec") {
			t.Errorf("allocbench %s: exit %d, want 2 naming %s and no rate\nstdout:\n%s\nstderr:\n%s", strings.Join(args, " "), code, args[0], out, errOut)
		}
	}
}
