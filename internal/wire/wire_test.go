package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"testing"
	"testing/iotest"
	"time"
)

// frame builds one frame by hand: the length prefix, the type byte, and a
// payload of n copies of typ.
func frame(typ byte, n int) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, uint32(n)), append([]byte{typ}, bytes.Repeat([]byte{typ}, n)...)...)
}

// TestFrameReaderBound hits MaxFrame from both sides: a payload of exactly
// MaxFrame bytes is a frame, one byte more is refused from its header alone —
// Buffered says so without waiting for a payload that will never be read —
// and nothing near 1 MiB is allocated for it.
func TestFrameReaderBound(t *testing.T) {
	fr := NewReader(bytes.NewReader(frame(0x2a, MaxFrame)))
	typ, payload, err := fr.Next()
	if err != nil || typ != 0x2a || len(payload) != MaxFrame {
		t.Fatalf("frame at the limit: type %#x, %d bytes, %v", typ, len(payload), err)
	}

	over := binary.LittleEndian.AppendUint32(nil, MaxFrame+1)
	fr = NewReader(bytes.NewReader(append(over, 0x2a)))
	if fr.Buffered() {
		t.Error("buffered before anything was read")
	}
	_, _, err = fr.Next()
	var ferr *FrameError
	if !errors.As(err, &ferr) || !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("frame over the limit: %v, want a *FrameError wrapping ErrFrameTooLarge", err)
	}
	if !fr.Buffered() {
		t.Error("buffered is false for a header Next refuses without reading")
	}
	if len(fr.buf) != readWindow {
		t.Errorf("buffer grew to %d bytes for a refused frame", len(fr.buf))
	}
}

// chunkReader hands out its chunks one Read each and counts what it gave.
type chunkReader struct {
	chunks [][]byte
	given  int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	for len(c.chunks) > 0 && len(c.chunks[0]) == 0 {
		c.chunks = c.chunks[1:]
	}
	if len(c.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.chunks[0])
	c.chunks[0] = c.chunks[0][n:]
	c.given += n
	return n, nil
}

// TestFrameReaderSplitEveryBoundary feeds one multi-frame stream in two reads,
// split at every byte, and byte by byte: the same frames come out, and
// Buffered is true exactly when the next whole frame has already been read
// off the connection — the contract both protocols' flush-before-block rests
// on (wq's burst staging, serve's coalesced replies).
func TestFrameReaderSplitEveryBoundary(t *testing.T) {
	sizes := []int{36, 18, 0, 90, 8, 0, 300}
	var stream []byte
	var ends []int // ends[i]: stream offset just past frame i
	for i, n := range sizes {
		stream = append(stream, frame(byte(i+1), n)...)
		ends = append(ends, len(stream))
	}
	check := func(name string, src *chunkReader) {
		fr := NewReader(src)
		for i, n := range sizes {
			if got, want := fr.Buffered(), src.given >= ends[i]; got != want {
				t.Fatalf("%s: before frame %d, %d bytes read: Buffered = %v, want %v", name, i, src.given, got, want)
			}
			typ, payload, err := fr.Next()
			if err != nil || typ != byte(i+1) || !bytes.Equal(payload, bytes.Repeat([]byte{typ}, n)) {
				t.Fatalf("%s: frame %d = type %d, %d bytes, %v", name, i, typ, len(payload), err)
			}
		}
		if fr.Buffered() {
			t.Fatalf("%s: buffered after the last frame", name)
		}
		if _, _, err := fr.Next(); err != io.EOF {
			t.Fatalf("%s: after the last frame: %v, want io.EOF", name, err)
		}
	}
	for cut := 0; cut <= len(stream); cut++ {
		check(fmt.Sprint("split at byte ", cut), &chunkReader{chunks: [][]byte{stream[:cut], stream[cut:]}})
	}
	single := make([][]byte, len(stream))
	for i := range stream {
		single[i] = stream[i : i+1]
	}
	check("byte by byte", &chunkReader{chunks: single})

	// A stream that ends inside a frame is the connection's failure.
	for cut := 1; cut < ends[0]; cut++ {
		if _, _, err := NewReader(bytes.NewReader(stream[:cut])).Next(); err != io.ErrUnexpectedEOF {
			t.Errorf("stream cut at byte %d: %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

// TestReaderLargeFrameShrinksBack: a frame sixteen times the standing buffer
// gets a buffer of exactly its size, on one-byte and single reads, and the
// reader gives it back once the stream has drained out of it.
func TestReaderLargeFrameShrinksBack(t *testing.T) {
	big := 1<<16 + 80
	stream := append(append(frame(1, 8), frame(2, big)...), frame(3, 18)...)
	for name, r := range map[string]io.Reader{
		"one-byte-reads": iotest.OneByteReader(bytes.NewReader(stream)),
		"single-read":    bytes.NewReader(stream),
	} {
		fr := NewReader(r)
		peak := 0
		for i := 1; i <= 3; i++ {
			if typ, _, err := fr.Next(); err != nil || typ != byte(i) {
				t.Fatalf("%s: frame %d = type %d, %v", name, i, typ, err)
			}
			peak = max(peak, len(fr.buf))
		}
		if _, _, err := fr.Next(); err != io.EOF {
			t.Fatalf("%s: after the last frame: %v, want io.EOF", name, err)
		}
		if want := Header + big; peak != want {
			t.Errorf("%s: buffer grew to %d bytes, want exactly the frame's %d", name, peak, want)
		}
		if len(fr.buf) != readWindow {
			t.Errorf("%s: buffer is %d bytes after the stream drained, want %d again", name, len(fr.buf), readWindow)
		}
	}
}

// TestInternBound: the intern table stops growing at maxInterned strings and
// never takes a long one, and what it holds is handed out without allocating.
func TestInternBound(t *testing.T) {
	fr := NewReader(nil)
	for i := 0; i < 2*maxInterned; i++ {
		fr.Intern([]byte{'c', byte('0' + i/64), byte('0' + i%64)})
	}
	fr.Intern(bytes.Repeat([]byte("x"), maxInternedLen+1))
	if len(fr.interned) != maxInterned {
		t.Errorf("intern table holds %d strings, want the bound %d", len(fr.interned), maxInterned)
	}
	if n := testing.AllocsPerRun(100, func() { fr.Intern([]byte("c00")) }); n != 0 {
		t.Errorf("interned lookup allocates %v times", n)
	}
}

// TestWriterDeadline: a write to a peer that stopped reading fails at the
// write deadline, with the lock released, instead of blocking for good.
func TestWriterDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out WriteTimeout")
	}
	mine, peer := net.Pipe()
	defer peer.Close()
	defer mine.Close()
	w := NewWriter(mine)
	done := make(chan error, 1)
	began := time.Now()
	go func() {
		w.Lock()
		defer w.Unlock()
		err := w.Queue(frame(1, 8))
		if err == nil {
			err = w.Flush()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("flush to a peer that never reads: %v, want a deadline error", err)
		}
		if waited := time.Since(began); waited < WriteTimeout-time.Second {
			t.Errorf("flush failed after %v, before the %v deadline", waited, WriteTimeout)
		}
	case <-time.After(WriteTimeout + 5*time.Second):
		t.Fatal("flush to a peer that never reads still blocked past the write deadline")
	}
	w.Lock() // released with the failed write
	w.Unlock()
}

// countingWriter records every write it is handed, as one slice each.
type countingWriter struct{ writes [][]byte }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes = append(c.writes, bytes.Clone(p))
	return len(p), nil
}

// sendOne is a single-frame sender: queue frame, then group-commit it.
func sendOne(w *Writer, frame []byte) error {
	w.Lock()
	defer w.Unlock()
	if err := w.Queue(frame); err != nil {
		return err
	}
	return w.FlushAfterYield()
}

// TestWriterFlushAfterYield pins the group commit on one P, where a yield
// runs every runnable goroutine before the yielder resumes. One exception
// remains: every 61st scheduling decision looks first at the global queue,
// where the yielder waits, so a burst may split once.
func TestWriterFlushAfterYield(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	t.Run("lone sender", func(t *testing.T) {
		cw := &countingWriter{}
		w := NewWriter(cw)
		if err := sendOne(w, frame(1, 8)); err != nil {
			t.Fatal(err)
		}
		if len(cw.writes) != 1 || !bytes.Equal(cw.writes[0], frame(1, 8)) {
			t.Fatalf("writes = %x, want the frame written once by the time the call returns", cw.writes)
		}
	})

	t.Run("burst", func(t *testing.T) {
		const k = 16
		cw := &countingWriter{}
		w := NewWriter(cw)
		start := make(chan struct{})
		var wg sync.WaitGroup
		errs := make(chan error, k)
		for i := 0; i < k; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				errs <- sendOne(w, frame(byte(i), 8))
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
		if total := len(bytes.Join(cw.writes, nil)); len(cw.writes) > 2 || total != k*len(frame(0, 8)) {
			t.Fatalf("%d senders runnable together: %d writes of %d bytes, want all %d frames in one write (two at most)",
				k, len(cw.writes), total, k)
		}
	})

	t.Run("rides the yielder's flush", func(t *testing.T) {
		cw := &countingWriter{}
		w := NewWriter(cw)
		// A sender that finds a yielder stepped aside returns with its frame
		// queued and nothing written.
		w.Lock()
		w.yielded = true
		if err := w.Queue(frame(1, 8)); err != nil {
			t.Fatal(err)
		}
		if err := w.FlushAfterYield(); err != nil {
			t.Fatal(err)
		}
		if len(cw.writes) != 0 || w.bw.Buffered() != len(frame(1, 8)) {
			t.Fatalf("%d writes, %d bytes buffered; want the frame queued and nothing written", len(cw.writes), w.bw.Buffered())
		}
		w.yielded = false
		w.Unlock()
		// The yielder's own flush carries it.
		if err := sendOne(w, frame(2, 8)); err != nil {
			t.Fatal(err)
		}
		if want := append(frame(1, 8), frame(2, 8)...); len(cw.writes) != 1 || !bytes.Equal(cw.writes[0], want) {
			t.Fatalf("writes = %x, want both frames in one write %x", cw.writes, want)
		}
	})
}
