package wire

import (
	"bytes"
	"errors"
	"net"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"
)

// logConn is a connection that records every write it is handed, as one
// slice each. Only what an Outbox calls is implemented.
type logConn struct {
	net.Conn
	mu     sync.Mutex
	writes [][]byte
}

func (c *logConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, bytes.Clone(p))
	c.mu.Unlock()
	return len(p), nil
}

func (c *logConn) SetWriteDeadline(time.Time) error { return nil }
func (c *logConn) Close() error                     { return nil }

// written returns every write so far and their bytes, joined.
func (c *logConn) written() ([][]byte, []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]byte(nil), c.writes...), bytes.Join(c.writes, nil)
}

// waitWritten waits until the writes add up to n bytes.
func (c *logConn) waitWritten(t *testing.T, n int) [][]byte {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		writes, all := c.written()
		if len(all) == n {
			return writes
		}
		if len(all) > n || time.Now().After(deadline) {
			t.Fatalf("%d bytes written, want %d", len(all), n)
		}
	}
}

// stage puts frame on o's stage and wakes its writer with verb.
func stage(t *testing.T, o *Outbox, frame []byte, verb func()) {
	t.Helper()
	if err := o.Put(append(o.Stage(), frame...)); err != nil {
		t.Error(err)
	}
	verb()
}

// TestOutboxGroupCommit pins the two wake verbs on one P, where a yield runs
// every runnable goroutine before the yielder resumes: a lone Kick is one
// write, and Committers runnable together share the write their first wake
// brought on, since the writer yields before it takes the stage. One
// exception remains: every 61st scheduling decision looks first at the global
// queue, where the yielding writer waits, so a burst may split once.
func TestOutboxGroupCommit(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	t.Run("lone kick", func(t *testing.T) {
		conn := &logConn{}
		o := NewOutbox(conn)
		defer o.Close()
		stage(t, o, frame(1, 8), o.Kick)
		if writes := conn.waitWritten(t, len(frame(1, 8))); len(writes) != 1 || o.Writes() != 1 {
			t.Fatalf("writes = %x (Writes %d), want the frame in one write", writes, o.Writes())
		}
	})

	t.Run("burst", func(t *testing.T) {
		const k = 16
		conn := &logConn{}
		o := NewOutbox(conn)
		defer o.Close()
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < k; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				stage(t, o, frame(byte(i), 8), o.Commit)
			}()
		}
		close(start)
		wg.Wait()
		if writes := conn.waitWritten(t, k*len(frame(0, 8))); len(writes) > 2 || o.Writes() != int64(len(writes)) {
			t.Fatalf("%d committers runnable together: %d writes (Writes %d), want all %d frames in one write (two at most)",
				k, len(writes), o.Writes(), k)
		}
	})
}

// TestOutboxBound stages frames for a peer that never reads. The sender's
// stage never grows past MaxStage by more than one frame: at the bound it
// waits for the writer, which is stuck in its write, until the write
// deadline fails that write. The sender is then released with the deadline
// error, the connection is closed, and every later Put and Close report the
// same error.
func TestOutboxBound(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out WriteTimeout")
	}
	mine, peer := net.Pipe()
	defer peer.Close()
	defer mine.Close()
	o := NewOutbox(mine)
	f := frame(1, 1019) // 1 KiB
	largest := 0
	done := make(chan error, 1)
	began := time.Now()
	go func() {
		for {
			s := append(o.Stage(), f...)
			largest = max(largest, len(s))
			if err := o.Put(s); err != nil {
				done <- err
				return
			}
		}
	}()
	select {
	case err := <-done:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("sender released with %v, want the write deadline", err)
		}
		if waited := time.Since(began); waited < WriteTimeout-time.Second {
			t.Errorf("sender released after %v, before the %v deadline", waited, WriteTimeout)
		}
	case <-time.After(WriteTimeout + 5*time.Second):
		t.Fatal("a sender to a peer that never reads still waits past the write deadline")
	}
	if largest > MaxStage+len(f) {
		t.Errorf("the stage grew to %d bytes, want at most MaxStage+%d = %d", largest, len(f), MaxStage+len(f))
	}
	_ = peer.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := peer.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("peer read %v after the failed write, want the hangup", err)
	}
	if err := o.Put(append(o.Stage(), f...)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("Put after the failed write: %v, want its error", err)
	}
	if err := o.Close(); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("Close after the failed write: %v, want its error", err)
	}
}

// TestOutboxCloseWritesTheStage: Close writes what is staged, though no verb
// woke the writer, and stops it; a Put after Close is refused.
func TestOutboxCloseWritesTheStage(t *testing.T) {
	conn := &logConn{}
	o := NewOutbox(conn)
	if err := o.Put(append(o.Stage(), frame(1, 8)...)); err != nil {
		t.Fatal(err)
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	if writes, _ := conn.written(); len(writes) != 1 || !bytes.Equal(writes[0], frame(1, 8)) {
		t.Fatalf("writes = %x, want the staged frame written once", writes)
	}
	if err := o.Put(append(o.Stage(), frame(2, 8)...)); !errors.Is(err, net.ErrClosed) {
		t.Errorf("Put after Close: %v, want net.ErrClosed", err)
	}
	if err := o.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}
