package wq

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"unicode/utf8"

	"dynalloc/internal/resources"
	"dynalloc/internal/wire"
)

// This file is the live engine's payload layout on internal/wire's frames,
// little-endian throughout, floats as their IEEE 754 bits.
//
//	register  u32 wireMagic | capacity 4 x f64                        (36 B)
//	task      u64 id | u16 n | category n B | alloc 4 x f64 |
//	          peak 4 x f64 | runtime f64                          (82 + n B)
//	result    u64 id | u8 status | u8 exceeded KindSet | duration f64 (18 B)
//	shutdown, ping, pong: empty
//
// Both ends ship from this tree, so there is one layout and no negotiation: a
// register frame carries wireMagic, and a peer that opens with anything else
// is turned away with wire.ErrProtocolMismatch.

const (
	maxCategory = math.MaxUint16

	wireVersion = 1
	// wireMagic opens a register payload: "WQ", then the version.
	wireMagic uint32 = 'W' | 'Q'<<8 | wireVersion<<16

	taskFixed  = 8 + 2 + 2*wire.VectorSize + 8 // a task payload without its category
	resultSize = 8 + 1 + 1 + 8
)

// validCategory reports whether a task frame can carry s.
func validCategory(s string) bool { return len(s) <= maxCategory && utf8.ValidString(s) }

// appendMessage appends m as one frame to dst: the fields its type carries,
// nothing else. What it wrote goes through the decoder's own checkPayload, so
// it refuses exactly what the peer would — a non-finite float, a negative task
// ID, a category too long or not UTF-8, an unknown type, status or resource
// kind — and a bad field costs the sender an error, not the peer its
// connection. On error dst is returned as it was.
func appendMessage(dst []byte, m *Message) ([]byte, error) {
	start := len(dst)
	dst = wire.AppendHeader(dst, byte(m.Type))
	switch m.Type {
	case MsgRegister:
		dst = wire.AppendVector(binary.LittleEndian.AppendUint32(dst, wireMagic), m.Capacity)
	case MsgTask:
		dst = binary.LittleEndian.AppendUint64(dst, uint64(m.TaskID))
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(m.Category))) // a wrapped length fails the check
		dst = append(dst, m.Category...)
		dst = wire.AppendVector(wire.AppendVector(dst, m.Alloc), m.Peak)
		dst = wire.AppendFloat(dst, m.Runtime)
	case MsgResult:
		dst = binary.LittleEndian.AppendUint64(dst, uint64(m.TaskID))
		dst = append(dst, byte(m.Status), byte(m.Exceeded))
		dst = wire.AppendFloat(dst, m.Duration)
	}
	if err := checkPayload(m.Type, dst[start+wire.Header:]); err != nil {
		return dst[:start], fmt.Errorf("wq: encode frame: %v", errors.Unwrap(err))
	}
	wire.SetLength(dst[start:])
	return dst, nil
}

// msgReader decodes the frames of one connection into a reused Message.
// Malformed frames return a *wire.FrameError; transport failures return the
// underlying error.
type msgReader struct{ fr *wire.Reader }

func newMsgReader(r io.Reader) msgReader { return msgReader{wire.NewReader(r)} }

func (mr msgReader) next(m *Message) error {
	typ, payload, err := mr.fr.Next()
	if err != nil {
		return err
	}
	return mr.decode(typ, payload, m)
}

// checkPayload is every check a payload must pass, for the decoder before it
// reads the fields out and for the encoder on what it just wrote: the exact
// length its type's layout says, the magic, a task ID that fits int, a UTF-8
// category, a known status and kinds, and no NaN or infinity in any float.
func checkPayload(typ MsgType, p []byte) error {
	floats := 0 // the payload ends in this many f64s
	switch {
	case typ == MsgRegister && len(p) == 4+wire.VectorSize:
		if magic := binary.LittleEndian.Uint32(p); magic != wireMagic {
			return &wire.FrameError{Cause: fmt.Errorf("%w: registration magic %#x, want %#x", wire.ErrProtocolMismatch, magic, wireMagic)}
		}
		floats = int(resources.NumKinds)
	case typ == MsgTask && len(p) >= taskFixed && len(p) == taskFixed+int(binary.LittleEndian.Uint16(p[8:])):
		if !utf8.Valid(p[10 : len(p)-taskFixed+10]) {
			return wire.Malformed("task category is not UTF-8")
		}
		floats = 2*int(resources.NumKinds) + 1
	case typ == MsgResult && len(p) == resultSize:
		if s := Status(p[8]); s != StatusSuccess && s != StatusExhausted || resources.KindSet(p[9])&^resources.AllKinds != 0 {
			return wire.Malformed("unknown result status %d or resource kind in %#b", p[8], p[9])
		}
		floats = 1
	case typ >= MsgShutdown && typ <= MsgPong && len(p) == 0:
		return nil
	case typ == 0 || typ > MsgPong:
		return wire.Malformed("unknown frame type %d", typ)
	default:
		return wire.Malformed("type %d frame with a %d-byte payload", typ, len(p))
	}
	if typ != MsgRegister && binary.LittleEndian.Uint64(p) > math.MaxInt {
		return wire.Malformed("task ID overflows int")
	}
	if !wire.Finite(p[len(p)-8*floats:]) {
		return wire.Malformed("non-finite value in a type %d frame", typ)
	}
	return nil
}

// decode parses one payload into m, resetting m first.
func (mr msgReader) decode(typ byte, p []byte, m *Message) error {
	*m = Message{Type: MsgType(typ)}
	if err := checkPayload(m.Type, p); err != nil {
		return err
	}
	switch m.Type {
	case MsgRegister:
		m.Capacity = wire.Vector(p[4:])
	case MsgTask:
		floats := p[len(p)-taskFixed+10:]
		m.TaskID = int(binary.LittleEndian.Uint64(p))
		m.Category = mr.fr.Intern(p[10 : len(p)-len(floats)])
		m.Alloc, m.Peak = wire.Vector(floats), wire.Vector(floats[wire.VectorSize:])
		m.Runtime = wire.Float(floats[2*wire.VectorSize:])
	case MsgResult:
		m.TaskID = int(binary.LittleEndian.Uint64(p))
		m.Status, m.Exceeded, m.Duration = Status(p[8]), resources.KindSet(p[9]), wire.Float(p[10:])
	}
	return nil
}

// post encodes m onto out's stage; waking the writer is the caller's verb. A
// failed outbox's error comes before an encoding error.
func post(out *wire.Outbox, m *Message) error {
	stage, err := appendMessage(out.Stage(), m)
	if perr := out.Put(stage); perr != nil {
		return perr
	}
	return err
}
