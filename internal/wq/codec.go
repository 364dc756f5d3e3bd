package wq

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"sync"
	"time"
	"unicode/utf8"

	"dynalloc/internal/resources"
)

// This file is the live engine's wire format: length-prefixed binary frames
// of fixed layout, little-endian throughout, floats as their IEEE 754 bits.
//
//	frame     u32 payload length | u8 type | payload
//	register  u32 wireMagic | capacity 4 x f64                        (36 B)
//	task      u64 id | u16 n | category n B | alloc 4 x f64 |
//	          peak 4 x f64 | runtime f64                          (82 + n B)
//	result    u64 id | u8 status | u8 exceeded KindSet | duration f64 (18 B)
//	shutdown, ping, pong: empty
//
// Both ends ship from this tree, so there is one layout and no negotiation: a
// register frame carries wireMagic, and a peer that opens with anything else
// is turned away with ErrProtocolMismatch. The framing (length prefix, bound,
// buffered) knows nothing of the Message layout below it.

const (
	frameHeader = 5 // u32 payload length, u8 type
	// maxFrame bounds a payload: the largest legal one (a task with a
	// maxCategory name) is under 64 KiB + 100 B, and a reader is never made to
	// buffer more than this on a peer's say-so.
	maxFrame    = 1 << 20
	maxCategory = math.MaxUint16
	// readWindow is the reader's standing buffer: ~40 task or ~170 result
	// frames per socket read.
	readWindow = 4096

	wireVersion = 1
	// wireMagic opens a register payload: "WQ", then the version.
	wireMagic uint32 = 'W' | 'Q'<<8 | wireVersion<<16

	vectorSize = 8 * int(resources.NumKinds)
	taskFixed  = 8 + 2 + 2*vectorSize + 8 // a task payload without its category
	resultSize = 8 + 1 + 1 + 8
)

// ErrFrameTooLarge reports a length prefix above maxFrame.
var ErrFrameTooLarge = errors.New("frame exceeds the 1 MiB limit")

// ErrProtocolMismatch reports a peer that does not speak this wire format:
// its first frame is malformed, or is a registration under another magic or
// version. Retrying the connection cannot help.
var ErrProtocolMismatch = errors.New("protocol mismatch")

// FrameError marks a malformed frame, as opposed to an I/O error on the
// connection: the manager counts these in Stats.DecodeErrors before it drops
// the peer.
type FrameError struct{ Cause error }

func (e *FrameError) Error() string { return "malformed frame: " + e.Cause.Error() }
func (e *FrameError) Unwrap() error { return e.Cause }

func malformed(format string, args ...any) error {
	return &FrameError{Cause: fmt.Errorf(format, args...)}
}

// asMismatch turns a malformed first frame of a connection into what it most
// likely is, a peer on another protocol; transport errors pass through.
func asMismatch(err error) error {
	var ferr *FrameError
	if errors.As(err, &ferr) && !errors.Is(err, ErrProtocolMismatch) {
		return &FrameError{Cause: fmt.Errorf("%w: %v", ErrProtocolMismatch, ferr.Cause)}
	}
	return err
}

// validCategory reports whether a task frame can carry s.
func validCategory(s string) bool { return len(s) <= maxCategory && utf8.ValidString(s) }

func appendVector(dst []byte, v resources.Vector) []byte {
	for _, x := range v {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	}
	return dst
}

// appendMessage appends m as one frame to dst: the fields its type carries,
// nothing else. What it wrote goes through the decoder's own checkPayload, so
// it refuses exactly what the peer would — a non-finite float, a negative task
// ID, a category too long or not UTF-8, an unknown type, status or resource
// kind — and a bad field costs the sender an error, not the peer its
// connection. On error dst is returned as it was.
func appendMessage(dst []byte, m *Message) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, byte(m.Type))
	switch m.Type {
	case MsgRegister:
		dst = appendVector(binary.LittleEndian.AppendUint32(dst, wireMagic), m.Capacity)
	case MsgTask:
		dst = binary.LittleEndian.AppendUint64(dst, uint64(m.TaskID))
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(m.Category))) // a wrapped length fails the check
		dst = append(dst, m.Category...)
		dst = appendVector(appendVector(dst, m.Alloc), m.Peak)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(m.Runtime))
	case MsgResult:
		dst = binary.LittleEndian.AppendUint64(dst, uint64(m.TaskID))
		dst = append(dst, byte(m.Status), byte(m.Exceeded))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(m.Duration))
	}
	if err := checkPayload(m.Type, dst[start+frameHeader:]); err != nil {
		return dst[:start], fmt.Errorf("wq: encode frame: %v", errors.Unwrap(err))
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-frameHeader))
	return dst, nil
}

// frameReader cuts a byte stream into frames. Its standing buffer is
// readWindow bytes; a larger frame gets a buffer of exactly its size, dropped
// again once the stream has drained out of it, and no length prefix above
// maxFrame is believed.
type frameReader struct {
	r     io.Reader
	small []byte // the standing buffer
	buf   []byte // small, or one outsized frame's buffer
	start int    // unconsumed window
	end   int
}

func newFrameReader(r io.Reader) *frameReader {
	small := make([]byte, readWindow)
	return &frameReader{r: r, small: small, buf: small}
}

// next returns the type byte and the payload of the next frame. The payload
// aliases the reader's buffer and is valid only until the next call. An
// oversize length prefix is a *FrameError; a stream that ends inside a frame
// is io.ErrUnexpectedEOF, between frames io.EOF.
func (fr *frameReader) next() (byte, []byte, error) {
	for {
		need := frameHeader
		if win := fr.buf[fr.start:fr.end]; len(win) >= frameHeader {
			n := binary.LittleEndian.Uint32(win)
			if n > maxFrame {
				return 0, nil, &FrameError{Cause: fmt.Errorf("%w: length prefix %d", ErrFrameTooLarge, n)}
			}
			need += int(n)
			if len(win) >= need {
				fr.start += need
				return win[4], win[frameHeader:need], nil
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

// buffered reports whether next can return without touching the connection:
// a complete frame is in memory, or a header next will refuse. (Saying false
// for the latter would have the manager hold back a kick or a flush while it
// blocks for a frame that can never become valid.)
func (fr *frameReader) buffered() bool {
	win := fr.buf[fr.start:fr.end]
	if len(win) < frameHeader {
		return false
	}
	n := binary.LittleEndian.Uint32(win)
	return n > maxFrame || len(win)-frameHeader >= int(n)
}

// fill makes room for a frame of need bytes at the front of the buffer and
// reads more of the stream.
func (fr *frameReader) fill(need int) error {
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

// maxInterned and maxInternedLen bound the category intern table of one
// connection (16 KiB at worst); past either a category is allocated per frame.
const (
	maxInterned    = 64
	maxInternedLen = 256
)

// msgReader decodes the frames of one connection into a reused Message.
// Category names repeat, so they are interned and the steady-state decode
// allocates nothing. Malformed frames return a *FrameError; transport
// failures return the underlying error.
type msgReader struct {
	fr         *frameReader
	categories map[string]string
}

func newMsgReader(r io.Reader) *msgReader {
	return &msgReader{fr: newFrameReader(r), categories: map[string]string{}}
}

func (mr *msgReader) next(m *Message) error {
	typ, payload, err := mr.fr.next()
	if err != nil {
		return err
	}
	return mr.decode(typ, payload, m)
}

// buffered reports whether next can return without touching the connection.
func (mr *msgReader) buffered() bool { return mr.fr.buffered() }

// checkPayload is every check a payload must pass, for the decoder before it
// reads the fields out and for the encoder on what it just wrote: the exact
// length its type's layout says, the magic, a task ID that fits int, a UTF-8
// category, a known status and kinds, and no NaN or infinity in any float.
func checkPayload(typ MsgType, p []byte) error {
	floats := 0 // the payload ends in this many f64s
	switch {
	case typ == MsgRegister && len(p) == 4+vectorSize:
		if magic := binary.LittleEndian.Uint32(p); magic != wireMagic {
			return &FrameError{Cause: fmt.Errorf("%w: registration magic %#x, want %#x", ErrProtocolMismatch, magic, wireMagic)}
		}
		floats = int(resources.NumKinds)
	case typ == MsgTask && len(p) >= taskFixed && len(p) == taskFixed+int(binary.LittleEndian.Uint16(p[8:])):
		if !utf8.Valid(p[10 : len(p)-taskFixed+10]) {
			return malformed("task category is not UTF-8")
		}
		floats = 2*int(resources.NumKinds) + 1
	case typ == MsgResult && len(p) == resultSize:
		if s := Status(p[8]); s != StatusSuccess && s != StatusExhausted || KindSet(p[9])&^allKinds != 0 {
			return malformed("unknown result status %d or resource kind in %#b", p[8], p[9])
		}
		floats = 1
	case typ >= MsgShutdown && typ <= MsgPong && len(p) == 0:
		return nil
	case typ == 0 || typ > MsgPong:
		return malformed("unknown frame type %d", typ)
	default:
		return malformed("type %d frame with a %d-byte payload", typ, len(p))
	}
	if typ != MsgRegister && binary.LittleEndian.Uint64(p) > math.MaxInt {
		return malformed("task ID overflows int")
	}
	for q := p[len(p)-8*floats:]; len(q) > 0; q = q[8:] {
		if binary.LittleEndian.Uint64(q)&(0x7ff<<52) == 0x7ff<<52 {
			return malformed("non-finite value in a type %d frame", typ)
		}
	}
	return nil
}

func getFloat(p []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(p)) }

func getVector(p []byte) (v resources.Vector) {
	for k := range v {
		v[k] = getFloat(p[8*k:])
	}
	return v
}

// decode parses one payload into m, resetting m first.
func (mr *msgReader) decode(typ byte, p []byte, m *Message) error {
	*m = Message{Type: MsgType(typ)}
	if err := checkPayload(m.Type, p); err != nil {
		return err
	}
	switch m.Type {
	case MsgRegister:
		m.Capacity = getVector(p[4:])
	case MsgTask:
		floats := p[len(p)-taskFixed+10:]
		m.TaskID = int(binary.LittleEndian.Uint64(p))
		m.Category = mr.intern(p[10 : len(p)-len(floats)])
		m.Alloc, m.Peak = getVector(floats), getVector(floats[vectorSize:])
		m.Runtime = getFloat(floats[2*vectorSize:])
	case MsgResult:
		m.TaskID = int(binary.LittleEndian.Uint64(p))
		m.Status, m.Exceeded, m.Duration = Status(p[8]), KindSet(p[9]), getFloat(p[10:])
	}
	return nil
}

func (mr *msgReader) intern(b []byte) string {
	if s, ok := mr.categories[string(b)]; ok || len(b) == 0 { // no-alloc lookup
		return s
	}
	s := string(b)
	if len(mr.categories) < maxInterned && len(s) <= maxInternedLen {
		mr.categories[s] = s
	}
	return s
}

// writeTimeout bounds every write to a peer: one that stopped reading gets its
// connection closed (the normal eviction path) when its socket buffer is full,
// where the write used to block for good and, heartbeats off, pin the flusher.
const writeTimeout = 5 * time.Second

// deadlineWriter arms the deadline before each write to the connection,
// flushes and the buffered writer's own overflow writes alike.
type deadlineWriter struct{ conn net.Conn }

func (d deadlineWriter) Write(p []byte) (int, error) {
	if err := d.conn.SetWriteDeadline(time.Now().Add(writeTimeout)); err != nil {
		return 0, err
	}
	return d.conn.Write(p)
}

// frameWriter serializes Message frames onto a connection with a reused
// encode buffer behind a buffered writer. queue stages a frame without
// flushing (the manager's coalesced dispatch delivery flushes once per
// batch); send is queue+flush, at once for lockstep frames (register, pong,
// pings, shutdown) and after one yield for results. A frameWriter is safe for
// concurrent use.
type frameWriter struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc []byte // appendMessage scratch
	// yielded marks a send that has queued its frame and stepped aside before
	// flushing; sends that queue meanwhile leave the flush to it.
	yielded bool
}

func newFrameWriter(w io.Writer) *frameWriter {
	if conn, ok := w.(net.Conn); ok {
		w = deadlineWriter{conn}
	}
	return &frameWriter{bw: bufio.NewWriterSize(w, 16*1024)}
}

// queue encodes m into the write buffer without flushing.
func (fw *frameWriter) queue(m *Message) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return fw.queueLocked(m)
}

func (fw *frameWriter) queueLocked(m *Message) error {
	var err error
	fw.enc, err = appendMessage(fw.enc[:0], m)
	if err != nil {
		return err
	}
	_, err = fw.bw.Write(fw.enc)
	return err
}

// flush pushes every queued frame to the connection.
func (fw *frameWriter) flush() error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return fw.bw.Flush()
}

// send encodes m and flushes it: at once, or with yield after every goroutine
// already runnable has had its turn to queue behind it — the first yielding
// sender flushes for all, the others return as soon as they have queued, and
// a burst costs one write. With nothing else runnable the yield returns at once.
func (fw *frameWriter) send(m *Message, yield bool) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if err := fw.queueLocked(m); err != nil {
		return err
	}
	if yield {
		if fw.yielded {
			return nil
		}
		fw.yielded = true
		fw.mu.Unlock()
		runtime.Gosched()
		fw.mu.Lock()
		fw.yielded = false
	}
	return fw.bw.Flush()
}
