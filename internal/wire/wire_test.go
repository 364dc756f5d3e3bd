package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"
	"testing/iotest"
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
