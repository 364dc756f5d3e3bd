package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// Frame types the fake protocol below understands.
const (
	typeHello   = 1 // a first frame Open accepts
	typeData    = 2
	typeRefused = 3 // a first frame Open refuses without calling it malformed
	typeBye     = 9
)

// fakeHandler is a protocol that logs every call the Server makes into it.
type fakeHandler struct {
	mu     sync.Mutex
	log    []string
	closed chan error // every Closed cause, in order
}

func newFakeHandler() *fakeHandler { return &fakeHandler{closed: make(chan error, 16)} }

func (h *fakeHandler) record(format string, args ...any) {
	h.mu.Lock()
	h.log = append(h.log, fmt.Sprintf(format, args...))
	h.mu.Unlock()
}

func (h *fakeHandler) calls() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return strings.Join(h.log, " ")
}

type fakeSession struct {
	h *fakeHandler
	c *Conn
}

func (h *fakeHandler) Open(c *Conn, typ byte, payload []byte) (Session, error) {
	switch typ {
	case typeHello:
		h.record("open")
		return &fakeSession{h, c}, nil
	case typeRefused:
		return nil, errors.New("refused")
	}
	return nil, Malformed("opened with a type %d frame", typ)
}

func (s *fakeSession) Frame(typ byte, payload []byte) error {
	s.h.record("frame")
	return nil
}

func (s *fakeSession) Idle() error {
	s.h.record("idle(buffered=%v)", s.c.In.Buffered())
	return nil
}

func (h *fakeHandler) Closed(c *Conn, s Session, cause error) {
	h.record("closed(session=%v)", s != nil)
	h.closed <- cause
}

func (h *fakeHandler) Sweep(time.Time) { h.record("sweep") }
func (h *fakeHandler) Drain()          { h.record("drain") }

func newFakeServer(grace time.Duration) (*Server, *fakeHandler) {
	h := newFakeHandler()
	return NewServer(h, 0, grace, frame(typeBye, 0)), h
}

// servePipe serves the server end of a pipe and returns the peer's end.
func servePipe(t *testing.T, s *Server) net.Conn {
	t.Helper()
	mine, peer := net.Pipe()
	t.Cleanup(func() { peer.Close() })
	go s.ServeConn(mine)
	return peer
}

// write hands p to the connection in one Write.
func write(t *testing.T, c net.Conn, p ...[]byte) {
	t.Helper()
	if _, err := c.Write(bytes.Join(p, nil)); err != nil {
		t.Fatal(err)
	}
}

func waitCause(t *testing.T, h *fakeHandler) error {
	t.Helper()
	select {
	case err := <-h.closed:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("Closed was never called")
		return nil
	}
}

// TestServerFirstFrameMismatch: a malformed first frame — one Open calls
// malformed, or a header the reader refuses — reaches Closed exactly once, as
// ErrProtocolMismatch and with no session; a plain refusal passes as it is.
func TestServerFirstFrameMismatch(t *testing.T) {
	for name, tc := range map[string]struct {
		opening  []byte
		mismatch bool
	}{
		"malformed in Open": {frame(7, 3), true},
		"oversize header":   {append(binary.LittleEndian.AppendUint32(nil, MaxFrame+1), typeHello), true},
		"refused":           {frame(typeRefused, 0), false},
	} {
		t.Run(name, func(t *testing.T) {
			s, h := newFakeServer(time.Second)
			peer := servePipe(t, s)
			write(t, peer, tc.opening)
			cause := waitCause(t, h)
			var ferr *FrameError
			if got := errors.As(cause, &ferr) && errors.Is(cause, ErrProtocolMismatch); got != tc.mismatch {
				t.Errorf("Closed cause %v: protocol mismatch %v, want %v", cause, got, tc.mismatch)
			}
			if _, err := peer.Read(make([]byte, 1)); err != io.EOF {
				t.Errorf("read after the refusal: %v, want the hangup", err)
			}
			s.Close()
			if got := h.calls(); got != "closed(session=false) drain" {
				t.Errorf("calls = %q, want one Closed without a session, then Close's drain", got)
			}
		})
	}
}

// TestServerIdleWhenReaderWouldBlock: Idle runs after the first frame's
// Open, after the last of three frames that arrived in one read, and after a
// frame split across two writes — each time with nothing buffered, and never
// between frames the reader already holds.
func TestServerIdleWhenReaderWouldBlock(t *testing.T) {
	s, h := newFakeServer(time.Second)
	peer := servePipe(t, s)
	write(t, peer, frame(typeHello, 0))
	write(t, peer, frame(typeData, 3), frame(typeData, 3), frame(typeData, 3))
	split := frame(typeData, 40)
	write(t, peer, split[:10])
	write(t, peer, split[10:])
	peer.Close()
	if err := waitCause(t, h); err != io.EOF {
		t.Errorf("Closed cause %v, want io.EOF", err)
	}
	idle := "idle(buffered=false)"
	want := strings.Join([]string{"open", idle, "frame", "frame", "frame", idle, "frame", idle, "closed(session=true)"}, " ")
	if got := h.calls(); got != want {
		t.Errorf("calls:\n got %s\nwant %s", got, want)
	}
	s.Close()
}

// TestServerCloseForceClosesAfterGrace: Close drains, sends the drain frame,
// and closes a connection whose peer is still there once the grace is over.
func TestServerCloseForceClosesAfterGrace(t *testing.T) {
	const grace = 50 * time.Millisecond
	s, h := newFakeServer(grace)
	peer := servePipe(t, s)
	write(t, peer, frame(typeHello, 0))
	for deadline := time.Now().Add(5 * time.Second); h.calls() != "open idle(buffered=false)"; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("calls = %q, want the connection opened and idle", h.calls())
		}
	}
	fr := NewReader(peer)
	closed := make(chan time.Duration, 1)
	go func() {
		began := time.Now()
		s.Close()
		closed <- time.Since(began)
	}()
	if typ, _, err := fr.Next(); err != nil || typ != typeBye {
		t.Fatalf("first frame after Close: type %d, %v; want the drain frame", typ, err)
	}
	if _, _, err := fr.Next(); err != io.EOF {
		t.Fatalf("after the drain frame: %v, want the hangup", err)
	}
	if took := <-closed; took < grace {
		t.Errorf("Close returned after %v, inside the %v grace", took, grace)
	}
	if err := waitCause(t, h); err == nil {
		t.Error("Closed got no cause for a forced close")
	}
	if got, want := h.calls(), "open idle(buffered=false) drain closed(session=true)"; got != want {
		t.Errorf("calls = %q, want %q", got, want)
	}
}

// flakyListener yields its results in order, then blocks until closed.
type flakyListener struct {
	results chan any // net.Conn or error
	closed  chan struct{}
	once    sync.Once
}

func (l *flakyListener) Accept() (net.Conn, error) {
	select {
	case r := <-l.results:
		if err, ok := r.(error); ok {
			return nil, err
		}
		return r.(net.Conn), nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *flakyListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *flakyListener) Addr() net.Addr { return &net.TCPAddr{} }

// TestServerAcceptRetriesAfterError: an Accept error that is not Close's —
// the file table full — costs a pause, not the accept loop: the connection
// the listener yields next is served.
func TestServerAcceptRetriesAfterError(t *testing.T) {
	s, h := newFakeServer(time.Second)
	mine, peer := net.Pipe()
	defer peer.Close()
	ln := &flakyListener{results: make(chan any, 2), closed: make(chan struct{})}
	ln.results <- syscall.EMFILE
	ln.results <- mine
	s.Serve(ln)
	if err := peer.SetWriteDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	write(t, peer, frame(typeHello, 0))
	peer.Close()
	waitCause(t, h)
	s.Close()
	if got := h.calls(); !strings.HasPrefix(got, "open ") {
		t.Errorf("calls = %q, want the connection after the failed Accept opened", got)
	}
}
