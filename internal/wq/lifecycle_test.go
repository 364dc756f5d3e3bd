package wq

import (
	"context"
	"io"
	"net"
	"syscall"
	"testing"
	"time"

	"dynalloc/internal/resources"
)

// flakyListener is a TCP listener whose first Accept fails the way a full
// file table does, and whose Close leaves the socket listening, so a worker
// can still dial in after the manager's Close.
type flakyListener struct {
	net.Listener
	failed bool // touched only by the accept loop
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if !l.failed {
		l.failed = true
		return nil, syscall.EMFILE
	}
	return l.Listener.Accept()
}

func (l *flakyListener) Close() error { return nil }

// rawWorker registers over TCP by hand and returns the connection.
func rawWorker(t *testing.T, addr string) (net.Conn, msgReader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	writeFrames(t, conn, &Message{Type: MsgRegister, Capacity: resources.PaperWorker()})
	return conn, newMsgReader(conn)
}

// expectShutdownThenHangup reads the shutdown frame and then the manager's
// hangup, giving up after wait.
func expectShutdownThenHangup(t *testing.T, conn net.Conn, mr msgReader, wait time.Duration) {
	t.Helper()
	if err := conn.SetReadDeadline(time.Now().Add(wait)); err != nil {
		t.Fatal(err)
	}
	var msg Message
	if err := mr.next(&msg); err != nil || msg.Type != MsgShutdown {
		t.Fatalf("first frame after Close: %+v, %v; want the shutdown frame", msg, err)
	}
	if err := mr.next(&msg); err != io.EOF {
		t.Fatalf("after the shutdown frame: %+v, %v; want the manager's hangup", msg, err)
	}
}

// TestCloseForceClosesWorkerThatStaysConnected: a worker that reads the
// shutdown frame and keeps its socket open is hung up on once the drain
// timeout has passed, instead of keeping its socket and the manager's reader
// goroutine after Close for good.
func TestCloseForceClosesWorkerThatStaysConnected(t *testing.T) {
	m := NewManager(generousPolicy(), WithDrainTimeout(100*time.Millisecond))
	addr, err := m.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, mr := rawWorker(t, addr)
	waitFor(t, "the worker's registration", func() bool { return m.Workers() == 1 })
	m.Close()
	expectShutdownThenHangup(t, conn, mr, 3*time.Second)
	if n := m.Workers(); n != 0 {
		t.Errorf("%d workers still connected after Close", n)
	}
}

// TestAcceptRetriesAndTurnsAwayAfterClose: a failed Accept costs a pause, not
// the accept loop, so the worker that dials next registers; and a worker
// accepted after Close is told to shut down before the hangup, as a
// connected one is, so RunWorker returns nil.
func TestAcceptRetriesAndTurnsAwayAfterClose(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	addr := inner.Addr().String()
	m := NewManager(generousPolicy(), WithDrainTimeout(time.Second))
	m.srv.Serve(&flakyListener{Listener: inner})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	done := make(chan error, 1)
	go func() { done <- RunWorker(ctx, addr, WorkerConfig{}) }()
	waitFor(t, "a registration past the failed Accept", func() bool { return m.Workers() == 1 })
	m.Close()
	if err := <-done; err != nil {
		t.Errorf("RunWorker drained by Close: %v, want nil", err)
	}

	conn, mr := rawWorker(t, addr)
	expectShutdownThenHangup(t, conn, mr, 5*time.Second)
	if err := RunWorker(ctx, addr, WorkerConfig{}); err != nil {
		t.Errorf("RunWorker accepted after Close: %v, want nil", err)
	}
	if s := m.Stats(); s.PeakWorkers != 1 || s.DecodeErrors != 0 {
		t.Errorf("peak workers %d, decode errors %d; want 1, 0", s.PeakWorkers, s.DecodeErrors)
	}
}
