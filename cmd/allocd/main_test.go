package main

import (
	"bufio"
	"errors"
	"io"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"dynalloc/internal/serve"
)

// TestSIGTERMDrains builds allocd, serves one client from it, and stops it
// with SIGTERM, the signal kill, systemd and Kubernetes send: the client is
// told the server is draining (or sees the hangup), and allocd prints its
// last counters and exits 0.
func TestSIGTERMDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the allocd binary")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command to build allocd with")
	}
	bin := filepath.Join(t.TempDir(), "allocd")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-stats-interval", "0", "-drain-timeout", "2s")
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
	var addr string
	select {
	case line := <-lines:
		rest, ok := strings.CutPrefix(line, "allocd listening on ")
		if !ok {
			t.Fatalf("first line %q, want the listening address", line)
		}
		addr, _, _ = strings.Cut(rest, " ")
	case <-time.After(10 * time.Second):
		t.Fatal("allocd never said where it listens")
	}

	c, err := serve.Dial(addr, "sigterm", "", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Allocate("c", 1); err != nil {
		t.Fatalf("Allocate: %v", err)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Pings answered before the signal lands are fine; the first that fails
	// must fail for the drain.
	deadline := time.Now().Add(10 * time.Second)
	for err = c.Ping(); err == nil && time.Now().Before(deadline); err = c.Ping() {
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(err, serve.ErrDraining) && !errors.Is(err, io.EOF) {
		t.Errorf("Ping after SIGTERM: %v, want ErrDraining or EOF", err)
	}
	var out []string
	for line := range lines {
		out = append(out, line)
	}
	if err := cmd.Wait(); err != nil {
		t.Errorf("allocd after SIGTERM: %v, want exit 0", err)
	}
	if n := len(out); n == 0 || !strings.HasPrefix(out[n-1], "allocd: stopped") {
		t.Errorf("allocd's output after the signal:\n%s\nwant it to end with allocd: stopped", strings.Join(out, "\n"))
	}
}
