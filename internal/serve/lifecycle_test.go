package serve

import (
	"errors"
	"net"
	"syscall"
	"testing"
	"time"
)

// flakyListener is a TCP listener whose first Accept fails the way a full
// file table does, and whose Close leaves the socket listening, so a client
// can still dial in after the server's Close.
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

// TestAcceptRetriesAndTurnsAwayAfterClose: a failed Accept costs a pause, not
// the accept loop, so the client that dials next registers; and a client
// accepted after Close gets the drain frame before the hangup, as a connected
// one does, so Dial returns ErrDraining.
func TestAcceptRetriesAndTurnsAwayAfterClose(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	addr := inner.Addr().String()
	s := NewServer(WithServerDrainTimeout(time.Second))
	s.srv.Serve(&flakyListener{Listener: inner})

	var c *Client
	dialed := make(chan error, 1)
	go func() {
		var err error
		c, err = Dial(addr, "flaky", "", 1)
		dialed <- err
	}()
	select {
	case err := <-dialed:
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
	case <-time.After(5 * time.Second):
		t.Fatal("no registration past the failed Accept")
	}
	if _, err := c.Allocate("c", 1); err != nil {
		t.Fatalf("Allocate past the failed Accept: %v", err)
	}
	s.Close()
	if err := c.Ping(); !errors.Is(err, ErrDraining) {
		t.Errorf("Ping after Close: %v, want ErrDraining", err)
	}

	rc := rawDial(t, addr)
	rc.write(rawRegister("late"))
	if f, err := rc.readFrame(); err != nil || f.Type != TypeDrain {
		t.Fatalf("registration after Close answered with %+v, %v; want the drain frame", f, err)
	}
	if f, err := rc.readFrame(); err == nil {
		t.Fatalf("connection stayed open after the drain frame: %+v", f)
	}
	if _, err := Dial(addr, "late", "", 1); !errors.Is(err, ErrDraining) {
		t.Errorf("Dial after Close: %v, want ErrDraining", err)
	}
	if n := s.Tenants(); n != 1 {
		t.Errorf("%d tenants, want only the one registered before Close", n)
	}
}
