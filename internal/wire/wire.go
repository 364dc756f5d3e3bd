// Package wire is the one connection layer under both of the repo's sockets,
// the wq manager/worker protocol and the allocd service: length-prefixed
// binary frames, a bounded frame reader, Outbox, the one outbound path of
// every connection, and Server, the one server lifecycle both run (accept,
// one reader per connection, first-frame dispatch, the sweep tick, drain and
// forced close), into which each protocol plugs as a Handler.
//
//	frame  u32 payload length | u8 type | payload
//
// Integers are little-endian and floats their IEEE 754 bits throughout. The
// package knows nothing of a payload beyond its length: internal/wq and
// internal/serve each define their layouts on top, build frames with the
// helpers here and validate every payload they send or receive. A sender
// encodes its frames onto its connection's Outbox and wakes the outbox's
// writer goroutine with one of two verbs, Kick (write now) or Commit (the
// group commit); no sender writes to a socket.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"dynalloc/internal/resources"
)

const (
	// Header is a frame's length prefix and type byte.
	Header = 5
	// MaxFrame bounds a payload: the largest legal one on either protocol (a
	// serve register or ack carrying two 64 KiB names) is under 129 KiB, and
	// a reader is never made to buffer more than this on a peer's say-so.
	MaxFrame = 1 << 20
	// VectorSize is a resources.Vector on the wire: one f64 per kind.
	VectorSize = 8 * int(resources.NumKinds)
	// WriteTimeout bounds every write to a peer: one that stopped reading
	// gets its connection closed when its socket buffer is full, instead of
	// blocking its outbox's writer, and whoever waits on it, for good.
	WriteTimeout = 5 * time.Second
	// MaxStage bounds what an Outbox holds unwritten: a sender whose frame
	// brings the stage to it waits until the writer has taken the stage.
	MaxStage = 64 << 10

	// readWindow is a Reader's standing buffer: ~40 wq task or ~170 wq
	// result frames per socket read.
	readWindow = 4096
	// maxInterned and maxInternedLen bound a Reader's string intern table
	// (16 KiB at worst); past either a string is allocated per frame.
	maxInterned    = 64
	maxInternedLen = 256
)

// ErrFrameTooLarge reports a length prefix above MaxFrame.
var ErrFrameTooLarge = errors.New("frame exceeds the 1 MiB limit")

// ErrProtocolMismatch reports a peer that does not speak the protocol it was
// dialled or accepted for: its first frame is malformed, or is a
// registration under another magic or version. Retrying the connection
// cannot help.
var ErrProtocolMismatch = errors.New("protocol mismatch")

// FrameError marks a malformed frame, as opposed to an I/O error on the
// connection: a frame the peer should never have sent, which is counted
// before the peer is dropped.
type FrameError struct{ Cause error }

func (e *FrameError) Error() string { return "malformed frame: " + e.Cause.Error() }
func (e *FrameError) Unwrap() error { return e.Cause }

// Malformed returns a *FrameError with a formatted cause.
func Malformed(format string, args ...any) error {
	return &FrameError{Cause: fmt.Errorf(format, args...)}
}

// AsMismatch turns a malformed first frame of a connection into what it most
// likely is, a peer on another protocol; transport errors pass through.
func AsMismatch(err error) error {
	var ferr *FrameError
	if errors.As(err, &ferr) && !errors.Is(err, ErrProtocolMismatch) {
		return &FrameError{Cause: fmt.Errorf("%w: %v", ErrProtocolMismatch, ferr.Cause)}
	}
	return err
}

// AppendHeader starts a frame of type typ at the end of dst, its length not
// yet known; SetLength fills it in once the payload follows.
func AppendHeader(dst []byte, typ byte) []byte { return append(dst, 0, 0, 0, 0, typ) }

// SetLength completes frame, which runs from its header to its end.
func SetLength(frame []byte) {
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-Header))
}

// AppendFloat appends x's bits.
func AppendFloat(dst []byte, x float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
}

// AppendVector appends v, kind by kind.
func AppendVector(dst []byte, v resources.Vector) []byte {
	for _, x := range v {
		dst = AppendFloat(dst, x)
	}
	return dst
}

// Float reads the f64 at the front of p.
func Float(p []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(p)) }

// Vector reads the vector at the front of p.
func Vector(p []byte) (v resources.Vector) {
	for k := range v {
		v[k] = Float(p[8*k:])
	}
	return v
}

// Finite reports whether no f64 in p, a run of them, is a NaN or an infinity.
func Finite(p []byte) bool {
	for ; len(p) >= 8; p = p[8:] {
		if binary.LittleEndian.Uint64(p)&(0x7ff<<52) == 0x7ff<<52 {
			return false
		}
	}
	return true
}

// Reader cuts a byte stream into frames. Its standing buffer is readWindow
// bytes; a larger frame gets a buffer of exactly its size, dropped again
// once the stream has drained out of it, and no length prefix above MaxFrame
// is believed. A Reader is owned by one goroutine.
type Reader struct {
	r     io.Reader
	small []byte // the standing buffer
	buf   []byte // small, or one outsized frame's buffer
	start int    // unconsumed window
	end   int

	interned map[string]string
}

// NewReader returns a Reader of r.
func NewReader(r io.Reader) *Reader {
	small := make([]byte, readWindow)
	return &Reader{r: r, small: small, buf: small, interned: map[string]string{}}
}

// Next returns the type byte and the payload of the next frame. The payload
// aliases the reader's buffer and is valid only until the next call. An
// oversize length prefix is a *FrameError wrapping ErrFrameTooLarge; a
// stream that ends inside a frame is io.ErrUnexpectedEOF, between frames
// io.EOF.
func (fr *Reader) Next() (byte, []byte, error) {
	for {
		need := Header
		if win := fr.buf[fr.start:fr.end]; len(win) >= Header {
			n := binary.LittleEndian.Uint32(win)
			if n > MaxFrame {
				return 0, nil, &FrameError{Cause: fmt.Errorf("%w: length prefix %d", ErrFrameTooLarge, n)}
			}
			need += int(n)
			if len(win) >= need {
				fr.start += need
				return win[4], win[Header:need], nil
			}
		}
		if err := fr.fill(need); err != nil {
			if err == io.EOF && fr.end > fr.start {
				err = io.ErrUnexpectedEOF
			}
			return 0, nil, err
		}
	}
}

// Buffered reports whether Next can return without touching the connection:
// a complete frame is in memory, or a header Next will refuse. (Saying false
// for the latter would have a caller that writes before it blocks hold back
// its write while it waits for a frame that can never become valid.)
func (fr *Reader) Buffered() bool {
	win := fr.buf[fr.start:fr.end]
	if len(win) < Header {
		return false
	}
	n := binary.LittleEndian.Uint32(win)
	return n > MaxFrame || len(win)-Header >= int(n)
}

// fill makes room for a frame of need bytes at the front of the buffer and
// reads more of the stream.
func (fr *Reader) fill(need int) error {
	live := fr.end - fr.start
	switch {
	case need > len(fr.buf):
		grown := make([]byte, need)
		copy(grown, fr.buf[fr.start:fr.end])
		fr.buf = grown
	case live == 0:
		fr.buf = fr.small
	case fr.start > 0:
		copy(fr.buf, fr.buf[fr.start:fr.end])
	}
	fr.start, fr.end = 0, live
	n, err := fr.r.Read(fr.buf[fr.end:])
	fr.end += n
	if n > 0 {
		return nil
	}
	if err == nil {
		err = io.ErrNoProgress
	}
	return err
}

// Intern returns b as a string, allocating only the first time a connection
// sends it: category, tenant and algorithm names repeat, so the steady-state
// decode allocates nothing. The table is bounded.
func (fr *Reader) Intern(b []byte) string {
	if s, ok := fr.interned[string(b)]; ok || len(b) == 0 { // no-alloc lookup
		return s
	}
	s := string(b)
	if len(fr.interned) < maxInterned && len(s) <= maxInternedLen {
		fr.interned[s] = s
	}
	return s
}
