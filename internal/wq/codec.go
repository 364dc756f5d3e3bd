package wq

import (
	"bufio"
	"io"
	"net"
	"runtime"
	"strconv"
	"sync"
	"time"

	"dynalloc/internal/jsonwire"
)

// This file is the live engine's frame layout on top of the shared wire
// codec in internal/jsonwire. Every hot-path frame (task dispatch, result,
// ping/pong) used to take an encoding/json reflection round trip on each
// side; now both manager and worker encode by appending into a reused buffer
// and decode with a scratch-reusing scanner. The encoding is pinned
// byte-compatible with json.Encoder.Encode(Message) and the decoder
// value-compatible with json.Unmarshal — FuzzWQMessageCodec and
// FuzzWQMessageDecode enforce both — so stock encoding/json peers (older
// workers, test harnesses, other-language clients) interoperate unchanged.

// appendMessage appends the JSON encoding of m plus a trailing newline to
// dst, producing exactly the bytes json.Encoder.Encode(*m) would: same field
// order, same omitempty behavior, same HTML-escaped strings, same float
// formatting. It errors (like json.Marshal) on non-finite floats.
func appendMessage(dst []byte, m *Message) ([]byte, error) {
	var err error
	dst = append(dst, `{"type":`...)
	dst = jsonwire.AppendString(dst, m.Type)
	// Fixed-size arrays are never "empty", so despite the omitempty tags the
	// three vectors appear in every frame — preserved for byte parity.
	if dst, err = jsonwire.AppendVector(append(dst, `,"capacity":`...), m.Capacity); err != nil {
		return dst, err
	}
	if m.TaskID != 0 {
		dst = append(dst, `,"task_id":`...)
		dst = strconv.AppendInt(dst, int64(m.TaskID), 10)
	}
	if m.Category != "" {
		dst = append(dst, `,"category":`...)
		dst = jsonwire.AppendString(dst, m.Category)
	}
	if dst, err = jsonwire.AppendVector(append(dst, `,"alloc":`...), m.Alloc); err != nil {
		return dst, err
	}
	if dst, err = jsonwire.AppendVector(append(dst, `,"peak":`...), m.Peak); err != nil {
		return dst, err
	}
	if m.Runtime != 0 {
		dst = append(dst, `,"runtime":`...)
		if dst, err = jsonwire.AppendFloat(dst, m.Runtime); err != nil {
			return dst, err
		}
	}
	if m.Status != "" {
		dst = append(dst, `,"status":`...)
		dst = jsonwire.AppendString(dst, m.Status)
	}
	if m.Duration != 0 {
		dst = append(dst, `,"duration":`...)
		if dst, err = jsonwire.AppendFloat(dst, m.Duration); err != nil {
			return dst, err
		}
	}
	if len(m.Exceeded) > 0 {
		dst = append(dst, `,"exceeded":[`...)
		for i, s := range m.Exceeded {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = jsonwire.AppendString(dst, s)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}', '\n'), nil
}

// Message field identifiers, in struct declaration order (the fold-match
// tie-break order encoding/json uses).
const (
	mdType = iota
	mdCapacity
	mdTaskID
	mdCategory
	mdAlloc
	mdPeak
	mdRuntime
	mdStatus
	mdDuration
	mdExceeded
	mdUnknown
)

var messageFieldNames = [...]string{
	"type", "capacity", "task_id", "category", "alloc",
	"peak", "runtime", "status", "duration", "exceeded",
}

// messageField resolves a decoded key to a Message field: exact match first,
// then (like encoding/json) the first field equal under Unicode case
// folding.
func messageField(key []byte) int {
	switch string(key) { // no-alloc comparison
	case "type":
		return mdType
	case "capacity":
		return mdCapacity
	case "task_id":
		return mdTaskID
	case "category":
		return mdCategory
	case "alloc":
		return mdAlloc
	case "peak":
		return mdPeak
	case "runtime":
		return mdRuntime
	case "status":
		return mdStatus
	case "duration":
		return mdDuration
	case "exceeded":
		return mdExceeded
	}
	for i, name := range messageFieldNames {
		if jsonwire.FoldEqual(key, name) {
			return i
		}
	}
	return mdUnknown
}

// messageDecoder parses one newline-delimited frame per call on a shared
// jsonwire.Decoder, reusing all scratch (string intern table, Exceeded
// backing array, unescape buffer) across frames so the steady-state decode
// path allocates nothing. Semantics match json.Unmarshal into a fresh
// Message; the decoded Exceeded slice aliases decoder scratch and is valid
// only until the next decode — callers that retain the message copy it.
type messageDecoder struct {
	d jsonwire.Decoder
}

// decode parses line (one JSON document, no trailing newline) into m,
// resetting m first. A bare "null" document leaves m zeroed, as
// json.Unmarshal would leave a fresh Message.
func (dec *messageDecoder) decode(line []byte, m *Message) error {
	*m = Message{}
	d := &dec.d
	return d.DecodeObject(line, func(key []byte) error {
		switch messageField(key) {
		case mdType:
			return d.String(&m.Type)
		case mdCapacity:
			return d.Vector(&m.Capacity)
		case mdTaskID:
			return d.Int(&m.TaskID)
		case mdCategory:
			return d.String(&m.Category)
		case mdAlloc:
			return d.Vector(&m.Alloc)
		case mdPeak:
			return d.Vector(&m.Peak)
		case mdRuntime:
			return d.Float(&m.Runtime)
		case mdStatus:
			return d.String(&m.Status)
		case mdDuration:
			return d.Float(&m.Duration)
		case mdExceeded:
			return d.Strings(&m.Exceeded)
		default:
			return d.Skip()
		}
	})
}

// msgReader reads newline-delimited frames from a connection through the
// shared grow-on-demand line reader, decoding each into a reused Message —
// so a frame bigger than the initial buffer grows the window instead of
// killing the connection (the old bufio.Scanner framing died at its token
// cap). Malformed frames return a *jsonwire.DecodeError; transport failures
// return the underlying error.
type msgReader struct {
	r   *jsonwire.Reader
	dec messageDecoder
}

func newMsgReader(r io.Reader) *msgReader {
	return &msgReader{r: jsonwire.NewReader(r)}
}

func (mr *msgReader) next(m *Message) error {
	line, err := mr.r.Next()
	if err != nil {
		return err
	}
	return mr.dec.decode(line, m)
}

// buffered reports whether a complete frame line is already in memory.
func (mr *msgReader) buffered() bool { return mr.r.Buffered() }

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
