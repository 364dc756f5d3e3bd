package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"dynalloc/internal/resources"
)

// rawConn speaks the wire protocol with encoding/json primitives only, so
// these tests exercise the server against a third-party-style client rather
// than our own codec.
type rawConn struct {
	t    *testing.T
	conn net.Conn
	r    *bufio.Reader
}

func rawDial(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawConn{t: t, conn: conn, r: bufio.NewReader(conn)}
}

func (rc *rawConn) writeLine(line string) {
	rc.t.Helper()
	if _, err := rc.conn.Write([]byte(line + "\n")); err != nil {
		rc.t.Fatal(err)
	}
}

func (rc *rawConn) readFrame() (Frame, error) {
	line, err := rc.r.ReadBytes('\n')
	if err != nil {
		return Frame{}, err
	}
	var f Frame
	if err := json.Unmarshal(line, &f); err != nil {
		return Frame{}, err
	}
	return f, nil
}

func (rc *rawConn) register(tenant string) {
	rc.t.Helper()
	rc.writeLine(fmt.Sprintf(`{"type":"register","tenant":%q}`, tenant))
	ack, err := rc.readFrame()
	if err != nil {
		rc.t.Fatalf("register: %v", err)
	}
	if ack.Type != TypeAck {
		rc.t.Fatalf("register: got %q frame, want ack", ack.Type)
	}
}

// TestServeDecodeErrorsCounted pins the malformed-frame contract: the server
// answers garbage with an error frame, counts it in DecodeErrors, and closes
// the connection — instead of the old behavior of dying silently.
func TestServeDecodeErrorsCounted(t *testing.T) {
	s, addr := startServer(t)

	// Garbage after a valid registration.
	rc := rawDial(t, addr)
	rc.register("garbage-a")
	rc.writeLine(`{"type":"request","seq":1,"category":"ok","task_id":1}`)
	if f, err := rc.readFrame(); err != nil || f.Type != TypeAlloc {
		t.Fatalf("valid request: frame %+v err %v", f, err)
	}
	rc.writeLine(`this is not json`)
	f, err := rc.readFrame()
	if err != nil {
		t.Fatalf("expected an error frame before hangup, got %v", err)
	}
	if f.Type != TypeError || !strings.Contains(f.Error, "decode frame") {
		t.Fatalf("got %+v, want a decode-frame error frame", f)
	}
	if _, err := rc.readFrame(); err == nil {
		t.Fatal("connection stayed open after a malformed frame")
	}
	if n := s.DecodeErrors(); n != 1 {
		t.Fatalf("DecodeErrors = %d, want 1", n)
	}

	// Garbage as the very first line.
	rc2 := rawDial(t, addr)
	rc2.writeLine(`{"seq":`)
	f, err = rc2.readFrame()
	if err != nil {
		t.Fatalf("expected an error frame before hangup, got %v", err)
	}
	if f.Type != TypeError {
		t.Fatalf("got %+v, want an error frame", f)
	}
	if _, err := rc2.readFrame(); err == nil {
		t.Fatal("connection stayed open after a malformed first frame")
	}
	if n := s.DecodeErrors(); n != 2 {
		t.Fatalf("DecodeErrors = %d, want 2", n)
	}

	// A fresh well-behaved connection is unaffected.
	rc3 := rawDial(t, addr)
	rc3.register("garbage-b")
}

// TestServeBlankLineAfterFrameStillReplies pins the flush rule against a
// frame followed by a blank line in the same write: the server defers its
// flush while the reader says a frame is buffered, so a reader that counts the
// blank line as a frame withholds the reply and then blocks on the socket.
func TestServeBlankLineAfterFrameStillReplies(t *testing.T) {
	_, addr := startServer(t)
	rc := rawDial(t, addr)
	rc.register("blank-line")
	if _, err := rc.conn.Write([]byte("{\"type\":\"ping\",\"seq\":2}\n\n")); err != nil {
		t.Fatal(err)
	}
	if err := rc.conn.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	f, err := rc.readFrame()
	if err != nil {
		t.Fatalf("no reply to a ping followed by a blank line: %v", err)
	}
	if f.Type != TypePong || f.Seq != 2 {
		t.Fatalf("got %+v, want pong seq 2", f)
	}
}

// TestServeInteropWithEncodingJSON drives a full request/retry/observe/stats
// exchange through encoding/json on the client side, proving the hand-rolled
// server codec interoperates with stock-JSON third-party clients.
func TestServeInteropWithEncodingJSON(t *testing.T) {
	_, addr := startServer(t)
	rc := rawDial(t, addr)
	rc.register("interop")

	rc.writeLine(`{"type":"request","seq":1,"category":"c","task_id":1}`)
	alloc, err := rc.readFrame()
	if err != nil || alloc.Type != TypeAlloc || alloc.Alloc == (resources.Vector{}) {
		t.Fatalf("request: frame %+v err %v", alloc, err)
	}
	prev, _ := json.Marshal(alloc.Alloc)
	rc.writeLine(fmt.Sprintf(`{"type":"retry","seq":2,"category":"c","task_id":1,"prev":%s,"exceeded":["memory"]}`, prev))
	retry, err := rc.readFrame()
	if err != nil || retry.Type != TypeAlloc {
		t.Fatalf("retry: frame %+v err %v", retry, err)
	}
	if retry.Alloc[resources.Memory] <= alloc.Alloc[resources.Memory] {
		t.Fatalf("retry did not escalate memory: %v -> %v", alloc.Alloc, retry.Alloc)
	}
	rc.writeLine(`{"type":"observe","category":"c","task_id":1,"peak":[1,100,10,5],"runtime":5}`)
	rc.writeLine(`{"type":"stats","seq":3}`)
	st, err := rc.readFrame()
	if err != nil || st.Type != TypeStats || st.Stats == nil {
		t.Fatalf("stats: frame %+v err %v", st, err)
	}
	if st.Stats.Allocates != 1 || st.Stats.Retries != 1 || st.Stats.Observes != 1 {
		t.Fatalf("stats counters %+v, want 1/1/1", *st.Stats)
	}
}

// TestObserveReturnsTerminalError pins the satellite fix: once the
// connection has failed, every Observe (and Allocate) returns the same
// terminal error instead of a raw write-to-closed-conn error from racing
// the failure.
func TestObserveReturnsTerminalError(t *testing.T) {
	// An ill-mannered server: accepts, acks registration, then drops the
	// connection without a drain frame.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		r := bufio.NewReader(conn)
		if _, err := r.ReadBytes('\n'); err == nil {
			conn.Write([]byte(`{"type":"ack","seq":0}` + "\n"))
		}
		time.Sleep(20 * time.Millisecond)
		conn.Close()
	}()

	c, err := Dial(ln.Addr().String(), "t", "", 1, WithFlushInterval(100*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var first error
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := c.Observe("c", 1, resources.New(1, 1, 1, 1), 1); err != nil {
			first = err
			break
		}
		time.Sleep(time.Millisecond)
	}
	if first == nil {
		t.Fatal("Observe never failed after the server dropped the connection")
	}
	// Every later operation reports the same terminal error, verbatim.
	for i := 0; i < 10; i++ {
		if err := c.Observe("c", 1, resources.New(1, 1, 1, 1), 1); err != first {
			t.Fatalf("Observe %d returned %v, want terminal error %v", i, err, first)
		}
	}
	if _, err := c.Allocate("c", 2); err != first {
		t.Fatalf("Allocate returned %v, want terminal error %v", err, first)
	}
	if err := c.Ping(); err != first {
		t.Fatalf("Ping returned %v, want terminal error %v", err, first)
	}
}

// TestObserveAfterDrainReturnsErrDraining is the graceful-shutdown variant:
// after the server drains, post-failure sends surface ErrDraining rather
// than a net error from the closed socket.
func TestObserveAfterDrainReturnsErrDraining(t *testing.T) {
	s, addr := startServer(t, WithServerDrainTimeout(200*time.Millisecond))
	c := dial(t, addr, "drain-obs", "", 1)
	if _, err := c.Allocate("c", 1); err != nil {
		t.Fatal(err)
	}
	s.Close()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		err := c.Observe("c", 1, resources.New(1, 1, 1, 1), 1)
		if err == nil {
			time.Sleep(time.Millisecond)
			continue
		}
		if !errors.Is(err, ErrDraining) {
			t.Fatalf("Observe returned %v, want ErrDraining", err)
		}
		return
	}
	t.Fatal("Observe never failed after drain")
}

// TestAllocateBatchMatchesSequential pins batch semantics: a batched request
// stream produces exactly the vectors sequential Allocate calls would, in
// task order, because the server processes frames in connection order.
func TestAllocateBatchMatchesSequential(t *testing.T) {
	_, addr := startServer(t)
	seq := dial(t, addr, "batch-seq", "", 42)
	bat := dial(t, addr, "batch-bat", "", 42) // separate tenant, same alg+seed

	const n = 100
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i + 1
	}
	want := make([]resources.Vector, 0, n)
	for _, id := range ids {
		v, err := seq.Allocate("c", id)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, v)
	}
	got, err := bat.AllocateBatch("c", ids, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("batch returned %d vectors, want %d", len(got), n)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("task %d: batch %v, sequential %v", ids[i], got[i], want[i])
		}
	}

	// Observations shift the predictions; a second batch reusing the result
	// slice must reflect them, proving interleaved observe/batch ordering.
	for _, id := range ids[:20] {
		if err := bat.Observe("c", id, resources.New(3, 1500, 200, 60), 60); err != nil {
			t.Fatal(err)
		}
		if err := seq.Observe("c", id, resources.New(3, 1500, 200, 60), 60); err != nil {
			t.Fatal(err)
		}
	}
	want = want[:0]
	for _, id := range ids {
		v, err := seq.Allocate("c", id)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, v)
	}
	got, err = bat.AllocateBatch("c", ids, got)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after observes, task %d: batch %v, sequential %v", ids[i], got[i], want[i])
		}
	}
	if _, err := bat.AllocateBatch("c", nil, nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

// TestServePipelinedStress hammers one connection with a deep in-flight
// window from many goroutines — batches bigger than the window (exercising
// the starvation/collect path), single calls, and coalesced observes —
// across reconnects, then checks the server saw every frame. Runs under
// -race via the serve package's race target.
func TestServePipelinedStress(t *testing.T) {
	s, addr := startServer(t, WithMaxRecords(256))
	const (
		rounds   = 3
		workers  = 8
		batchLen = 64 // > window/workers, so batchers starve and self-drain
	)
	var wantAllocs, wantObserves int64
	for round := 0; round < rounds; round++ {
		c, err := Dial(addr, "pipe", "", 1,
			WithPipelineWindow(32), WithFlushInterval(200*time.Microsecond))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				base := (round*workers + w) * 1000
				ids := make([]int, batchLen)
				for i := range ids {
					ids[i] = base + i
				}
				out, err := c.AllocateBatch("cat", ids, nil)
				if err != nil {
					errs <- fmt.Errorf("worker %d batch: %w", w, err)
					return
				}
				if len(out) != batchLen {
					errs <- fmt.Errorf("worker %d: got %d vectors, want %d", w, len(out), batchLen)
					return
				}
				for i, v := range out {
					if v == (resources.Vector{}) {
						errs <- fmt.Errorf("worker %d: zero alloc for task %d", w, ids[i])
						return
					}
				}
				for i := 0; i < 16; i++ {
					if err := c.Observe("cat", base+i, out[i].Scale(0.5), 10); err != nil {
						errs <- fmt.Errorf("worker %d observe: %w", w, err)
						return
					}
				}
				if _, err := c.Allocate("cat", base+batchLen); err != nil {
					errs <- fmt.Errorf("worker %d allocate: %w", w, err)
					return
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		wantAllocs += int64(workers * (batchLen + 1))
		wantObserves += int64(workers * 16)
		st, err := c.Stats() // barrier: all observes applied before Close
		if err != nil {
			t.Fatal(err)
		}
		if st.Allocates != wantAllocs {
			t.Fatalf("round %d: server saw %d allocates, want %d", round, st.Allocates, wantAllocs)
		}
		if st.Observes != wantObserves {
			t.Fatalf("round %d: server saw %d observes, want %d", round, st.Observes, wantObserves)
		}
		c.Close()
	}

	// Drain mid-flight: every outstanding pipelined call must surface
	// ErrDraining (or the post-drain connection-lost error), never hang.
	c, err := Dial(addr, "pipe-drain", "", 1, WithPipelineWindow(64))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				if _, err := c.Allocate("d", w*100000+i); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	time.Sleep(20 * time.Millisecond)
	s.Close()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if !errors.Is(err, ErrDraining) && !strings.Contains(err.Error(), "connection lost") {
			t.Fatalf("in-flight call failed with %v, want ErrDraining or connection-lost", err)
		}
	}
	if s.DecodeErrors() != 0 {
		t.Fatalf("stress produced %d decode errors", s.DecodeErrors())
	}
}
