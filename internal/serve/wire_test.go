package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"dynalloc/internal/allocator"
	"dynalloc/internal/resources"
	"dynalloc/internal/wire"
	"dynalloc/internal/wq"
)

// rawConn is an outside peer: it builds the frames it sends by hand from the
// layout in codec.go, not through appendFrame, so these tests pin the bytes
// a client written elsewhere would put on the wire. Replies are read through
// the package's decoder.
type rawConn struct {
	t    *testing.T
	conn net.Conn
	fr   frameReader
}

func rawDial(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawConn{t: t, conn: conn, fr: newFrameReader(conn)}
}

// raw is one frame: the payload length, the type byte, then the parts.
func raw(typ FrameType, parts ...[]byte) []byte {
	payload := bytes.Join(parts, nil)
	return append(binary.LittleEndian.AppendUint32(nil, uint32(len(payload))), append([]byte{byte(typ)}, payload...)...)
}

func u64(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
func u16(n int) []byte    { return binary.LittleEndian.AppendUint16(nil, uint16(n)) }

func f64s(v resources.Vector) []byte {
	var b []byte
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// rawRegister registers tenant under magic "AD", version 1, seed 0 and the
// default algorithm.
func rawRegister(tenant string) []byte {
	return raw(TypeRegister, []byte("AD\x01\x00"), u64(0), u16(len(tenant)), u16(0), []byte(tenant))
}

func rawPing(seq uint64) []byte { return raw(TypePing, u64(seq)) }

// write hands the frames to the connection in one Write.
func (rc *rawConn) write(frames ...[]byte) {
	rc.t.Helper()
	if _, err := rc.conn.Write(bytes.Join(frames, nil)); err != nil {
		rc.t.Fatal(err)
	}
}

func (rc *rawConn) readFrame() (Frame, error) {
	var f Frame
	err := rc.fr.next(&f)
	return f, err
}

func (rc *rawConn) register(tenant string) {
	rc.t.Helper()
	rc.write(rawRegister(tenant))
	ack, err := rc.readFrame()
	if err != nil {
		rc.t.Fatalf("register: %v", err)
	}
	if ack.Type != TypeAck || ack.Tenant != tenant {
		rc.t.Fatalf("register: got %+v, want an ack for %q", ack, tenant)
	}
}

// refused reads the error frame a refused peer gets, then the hangup.
func (rc *rawConn) refused(want string) {
	rc.t.Helper()
	f, err := rc.readFrame()
	if err != nil {
		rc.t.Fatalf("expected an error frame before hangup, got %v", err)
	}
	if f.Type != TypeError || !strings.Contains(f.Error, want) {
		rc.t.Fatalf("got %+v, want an error frame naming %q", f, want)
	}
	if _, err := rc.readFrame(); err == nil {
		rc.t.Fatal("connection stayed open after the error frame")
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
	rc.write(raw(TypeRequest, u64(1), u64(1), u16(2), []byte("ok")))
	if f, err := rc.readFrame(); err != nil || f.Type != TypeAlloc || f.Seq != 1 {
		t.Fatalf("valid request: frame %+v err %v", f, err)
	}
	rc.write([]byte{0, 0, 0, 0, 0x7f}) // a frame of no known type
	rc.refused("malformed frame: unknown frame type")
	if n := s.DecodeErrors(); n != 1 {
		t.Fatalf("DecodeErrors = %d, want 1", n)
	}

	// Garbage as the very first frame: a register cut short.
	rc2 := rawDial(t, addr)
	rc2.write(raw(TypeRegister, []byte("AD\x01\x00")))
	rc2.refused(wire.ErrProtocolMismatch.Error())
	if n := s.DecodeErrors(); n != 2 {
		t.Fatalf("DecodeErrors = %d, want 2", n)
	}

	// A fresh well-behaved connection is unaffected.
	rc3 := rawDial(t, addr)
	rc3.register("garbage-b")
}

// TestServeOversizeFrame: a length prefix past wire.MaxFrame is refused from
// the header alone — nothing is buffered for it — answered with an error
// frame, counted once, and the connection closed.
func TestServeOversizeFrame(t *testing.T) {
	s, addr := startServer(t)
	rc := rawDial(t, addr)
	rc.register("oversize")
	rc.write(append(binary.LittleEndian.AppendUint32(nil, wire.MaxFrame+1), byte(TypeRequest)))
	rc.refused(wire.ErrFrameTooLarge.Error())
	if n := s.DecodeErrors(); n != 1 {
		t.Fatalf("DecodeErrors = %d, want 1", n)
	}
}

// TestServeRefusesOtherProtocols: a peer that opens with another protocol's
// bytes is refused with wire.ErrProtocolMismatch and counted — a wq worker
// dialling allocd (whose register frame carries the wq magic), and a client
// of the JSON-line protocol allocd spoke before it.
func TestServeRefusesOtherProtocols(t *testing.T) {
	t.Run("wq worker", func(t *testing.T) {
		s, addr := startServer(t)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := wq.RunWorker(ctx, addr, wq.WorkerConfig{})
		if !errors.Is(err, wire.ErrProtocolMismatch) {
			t.Errorf("wq worker against allocd returned %v, want a protocol mismatch", err)
		}
		if n := s.DecodeErrors(); n != 1 {
			t.Errorf("DecodeErrors = %d, want 1", n)
		}
	})
	t.Run("JSON register line", func(t *testing.T) {
		s, addr := startServer(t)
		rc := rawDial(t, addr)
		rc.write([]byte(`{"type":"register","tenant":"json"}` + "\n"))
		rc.refused(wire.ErrProtocolMismatch.Error())
		if n := s.DecodeErrors(); n != 1 {
			t.Errorf("DecodeErrors = %d, want 1", n)
		}
	})
}

// TestDialWQManager: serve.Dial against a wq manager returns the same
// sentinel — the manager hangs up on a registration it cannot read, and an
// allocator service never does.
func TestDialWQManager(t *testing.T) {
	m := wq.NewManager(allocator.MustNew(allocator.MaxSeen, allocator.Config{}))
	addr, err := m.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if c, err := Dial(addr, "t", "", 0); !errors.Is(err, wire.ErrProtocolMismatch) {
		if c != nil {
			c.Close()
		}
		t.Fatalf("Dial against a wq manager: %v, want a protocol mismatch", err)
	}
	if n := m.Stats().DecodeErrors; n != 1 {
		t.Errorf("manager counted %d decode errors, want 1", n)
	}
}

// TestClientRefusesUnsendable: a frame the wire cannot carry fails in the
// client before anything is sent — a tenant or category over 64 KiB or not
// UTF-8, a non-finite float, a kind that is no resources.Kind — and costs
// neither the connection nor a decode error on the server.
func TestClientRefusesUnsendable(t *testing.T) {
	s, addr := startServer(t)
	long := strings.Repeat("x", math.MaxUint16+1)
	for _, tenant := range []string{long, "a\xffb"} {
		if c, err := Dial(addr, tenant, "", 0); err == nil {
			c.Close()
			t.Errorf("Dial registered a %d-byte tenant", len(tenant))
		}
	}
	c := dial(t, addr, "refuse", "", 0)
	one := resources.New(1, 1, 1, 1)
	for name, call := range map[string]func() error{
		"category over 64 KiB": func() error { _, err := c.Allocate(long, 1); return err },
		"category not UTF-8":   func() error { return c.Observe("\xc3", 1, one, 1) },
		"NaN peak":             func() error { return c.Observe("c", 1, resources.Vector{1, math.NaN(), 1, 1}, 1) },
		"infinite runtime":     func() error { return c.Observe("c", 1, one, math.Inf(1)) },
		"infinite prev": func() error {
			_, err := c.Retry("c", 1, resources.Vector{math.Inf(-1), 1, 1, 1}, []resources.Kind{resources.Memory})
			return err
		},
		"kind past NumKinds": func() error {
			_, err := c.Retry("c", 1, one, []resources.Kind{resources.Memory, resources.NumKinds})
			return err
		},
		"negative kind": func() error { _, err := c.Retry("c", 1, one, []resources.Kind{-1}); return err },
	} {
		if err := call(); err == nil {
			t.Errorf("%s: sent", name)
		}
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatalf("connection lost to a refused frame: %v", err)
	}
	if st.Allocates+st.Retries+st.Observes != 0 || s.DecodeErrors() != 0 || s.Tenants() != 1 {
		t.Errorf("server saw %+v, %d decode errors, %d tenants; want nothing, 0, 1", st, s.DecodeErrors(), s.Tenants())
	}
}

// TestServeBlankLineAfterFrameStillReplies is the binary twin of the
// blank-line liveness bug it is named for (PR 15): the server defers its
// replies while the reader says a frame is buffered, so a reader that counted
// the bytes behind a frame as a frame of their own withheld the reply and
// blocked on the socket. A ping and the first bytes of the next frame in one
// write must still get their pong.
func TestServeBlankLineAfterFrameStillReplies(t *testing.T) {
	_, addr := startServer(t)
	rc := rawDial(t, addr)
	rc.register("partial-frame")
	rc.write(rawPing(2), rawPing(3)[:wire.Header+2])
	if err := rc.conn.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	f, err := rc.readFrame()
	if err != nil {
		t.Fatalf("no reply to a ping followed by part of a frame: %v", err)
	}
	if f.Type != TypePong || f.Seq != 2 {
		t.Fatalf("got %+v, want pong seq 2", f)
	}
}

// TestServeInteropWithRawFrames drives a full request/retry/observe/stats
// exchange from hand-built frames, so the server is pinned against a client
// that shares none of this package's encoder.
func TestServeInteropWithRawFrames(t *testing.T) {
	_, addr := startServer(t)
	rc := rawDial(t, addr)
	rc.register("interop")

	cat := []byte("c")
	rc.write(raw(TypeRequest, u64(1), u64(1), u16(len(cat)), cat))
	alloc, err := rc.readFrame()
	if err != nil || alloc.Type != TypeAlloc || alloc.Seq != 1 || alloc.Alloc == (resources.Vector{}) {
		t.Fatalf("request: frame %+v err %v", alloc, err)
	}
	rc.write(raw(TypeRetry, u64(2), u64(1), []byte{1 << resources.Memory}, f64s(alloc.Alloc), u16(len(cat)), cat))
	retry, err := rc.readFrame()
	if err != nil || retry.Type != TypeAlloc || retry.Seq != 2 {
		t.Fatalf("retry: frame %+v err %v", retry, err)
	}
	if retry.Alloc[resources.Memory] <= alloc.Alloc[resources.Memory] {
		t.Fatalf("retry did not escalate memory: %v -> %v", alloc.Alloc, retry.Alloc)
	}
	rc.write(raw(TypeObserve, u64(1), f64s(resources.New(1, 100, 10, 5)), f64s(resources.Vector{5})[:8], u16(len(cat)), cat),
		raw(TypeStats, u64(3), make([]byte, 8*statsCounters), u16(0)))
	st, err := rc.readFrame()
	if err != nil || st.Type != TypeStats || st.Seq != 3 {
		t.Fatalf("stats: frame %+v err %v", st, err)
	}
	if st.Stats.Tenant != "interop" || st.Stats.Allocates != 1 || st.Stats.Retries != 1 || st.Stats.Observes != 1 {
		t.Fatalf("stats %+v, want interop with 1/1/1", st.Stats)
	}
}

// TestServeCloseWithAPeerThatStoppedReading: a client that registers, streams
// pings and never reads a pong fills both socket buffers until the server's
// write blocks, and then the connection's stage up to wire.MaxStage, where
// the reader and Close, staging the drain frame, wait for the writer. The
// write deadline ends that write, so Close returns within it; without one
// Close waited for good.
func TestServeCloseWithAPeerThatStoppedReading(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out wire.WriteTimeout")
	}
	s := NewServer(WithServerDrainTimeout(200 * time.Millisecond))
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rc := rawDial(t, addr)
	rc.register("stopped-reading")
	pings := bytes.Repeat(rawPing(1), 4096)
	for {
		// Our own writes stall once the server has stopped reading, which it
		// does only while it is blocked writing pongs.
		if err := rc.conn.SetWriteDeadline(time.Now().Add(500 * time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		if _, err := rc.conn.Write(pings); err != nil {
			break
		}
	}
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(wire.WriteTimeout + 5*time.Second):
		t.Fatal("Close still blocked on a peer that stopped reading")
	}
}

// TestServeReaderKeepsReadingWhileClientStopsReading: a client that
// registers, sends 8 requests and never reads a reply holds the connection's
// writer in its write, not its reader. The 8 observes it sends next are
// applied, which a second client on the tenant sees through Stats within a
// second; a reader that wrote its own replies would wait on the write.
func TestServeReaderKeepsReadingWhileClientStopsReading(t *testing.T) {
	s, addr := startServer(t)
	mine, peer := net.Pipe()
	t.Cleanup(func() { peer.Close() })
	go s.srv.ServeConn(mine)
	cat := []byte("c")
	requests := [][]byte{rawRegister("stopped-reading")}
	var observes [][]byte
	for i := uint64(1); i <= 8; i++ {
		requests = append(requests, raw(TypeRequest, u64(i), u64(i), u16(len(cat)), cat))
		observes = append(observes, raw(TypeObserve, u64(i), f64s(resources.New(1, 100, 10, 5)), f64s(resources.Vector{5})[:8], u16(len(cat)), cat))
	}
	if _, err := peer.Write(bytes.Join(requests, nil)); err != nil {
		t.Fatal(err)
	}
	go peer.Write(bytes.Join(observes, nil)) // returns once the server has read it all, or at the cleanup's close

	other := dial(t, addr, "stopped-reading", "", 1)
	for deadline := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
		st, err := other.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Observes == 8 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of the 8 observes applied a second after they were sent, want all", st.Observes)
		}
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
		var reg Frame
		if newFrameReader(conn).next(&reg) == nil {
			conn.Write(raw(TypeAck, u16(1), u16(0), []byte("t")))
		}
		time.Sleep(20 * time.Millisecond)
		conn.Close()
	}()

	c, err := Dial(ln.Addr().String(), "t", "", 1)
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
		c, err := Dial(addr, "pipe", "", 1, WithPipelineWindow(32))
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
