package serve

import (
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynalloc/internal/resources"
	"dynalloc/internal/wire"
)

// TestCloseDeliversBufferedObserves: an observe wakes no writer, so Close
// must write it. The server counts every observe sent before Close once the
// connection has been served to its end.
func TestCloseDeliversBufferedObserves(t *testing.T) {
	s, addr := startServer(t)
	c, err := Dial(addr, "close", "", 1)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	for i := 0; i < n; i++ {
		if err := c.Observe("c", i, resources.New(1, 100, 100, 10), 10); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// The server reads a connection to its end before dropping it.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if st := s.Stats(); len(st) == 1 && st[0].Connections == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the server never finished the closed connection")
		}
	}
	st, err := dial(t, addr, "close", "", 1).Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Observes != n {
		t.Fatalf("server counted %d observes, want all %d sent before Close", st.Observes, n)
	}
}

// countingConn counts the writes made to a connection and their bytes.
type countingConn struct {
	net.Conn
	writes, bytes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	c.bytes.Add(int64(len(p)))
	return c.Conn.Write(p)
}

// countWrites dials a client whose socket writes after registration are
// counted: its outbox is swapped for one over a counting connection while
// nothing is staged (Dial has returned).
func countWrites(t *testing.T, addr, tenant string) (*Client, *countingConn) {
	c := dial(t, addr, tenant, "", 1)
	cc := &countingConn{Conn: c.conn}
	if err := c.out.Close(); err != nil {
		t.Fatal(err)
	}
	c.out = wire.NewOutbox(cc)
	return c, cc
}

func frameLen(t *testing.T, f Frame) int64 {
	b, err := appendFrame(nil, &f)
	if err != nil {
		t.Fatal(err)
	}
	return int64(len(b))
}

// TestClientWritesCoalesce pins the two wake verbs from the client's socket:
// a lockstep call kicks and costs exactly one write, observes staged before
// it ride in that write, and calls made together commit and share writes. A
// call's write is in by the time its answer is, so the counts are final when
// a call returns.
func TestClientWritesCoalesce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	_, addr := startServer(t)

	t.Run("lockstep", func(t *testing.T) {
		c, cc := countWrites(t, addr, "lockstep")
		peak := resources.New(1, 100, 100, 10)
		for i := 0; i < 3; i++ {
			if err := c.Observe("c", i, peak, 10); err != nil {
				t.Fatal(err)
			}
		}
		if w := cc.writes.Load(); w != 0 {
			t.Fatalf("observes alone cost %d writes, want 0", w)
		}
		if _, err := c.Allocate("c", 3); err != nil {
			t.Fatal(err)
		}
		want := 3*frameLen(t, Frame{Type: TypeObserve, Category: "c", Peak: peak, Runtime: 10}) +
			frameLen(t, Frame{Type: TypeRequest, Category: "c"})
		if w, b := cc.writes.Load(), cc.bytes.Load(); w != 1 || b != want {
			t.Fatalf("observes then a call: %d writes of %d bytes, want 1 of %d", w, b, want)
		}
		for i := 4; i < 10; i++ {
			if _, err := c.Allocate("c", i); err != nil {
				t.Fatal(err)
			}
			if w := cc.writes.Load(); w != int64(i-2) {
				t.Fatalf("after %d lockstep calls: %d writes, want one each", i-2, w)
			}
		}
		if st, err := c.Stats(); err != nil || st.Observes != 3 {
			t.Fatalf("stats = %+v, %v; want the 3 observes applied", st, err)
		}
	})

	t.Run("together", func(t *testing.T) {
		const k = 8
		c, cc := countWrites(t, addr, "together")
		start := make(chan struct{})
		var wg sync.WaitGroup
		errs := make(chan error, k)
		for i := 0; i < k; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				_, err := c.Allocate("c", i)
				errs <- err
			}()
		}
		close(start)
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if w := cc.writes.Load(); w >= k {
			t.Fatalf("%d calls made together cost %d writes, want fewer than %d", k, w, k)
		}
	})
}
