package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"unicode/utf8"

	"dynalloc/internal/resources"
	"dynalloc/internal/wire"
)

// This file is the service's payload layout on internal/wire's frames,
// little-endian throughout, floats as their IEEE 754 bits. A payload is a
// fixed part, then a u16 length per string, then the strings' UTF-8 bytes:
//
//	register  u32 serveMagic | u64 seed | u16 n1, n2 | tenant | algorithm
//	request   u64 seq | i64 task_id | u16 n | category
//	retry     u64 seq | i64 task_id | u8 exceeded KindSet | prev 4 x f64 |
//	          u16 n | category
//	observe   i64 task_id | peak 4 x f64 | runtime f64 | u16 n | category
//	ping      u64 seq
//	stats     u64 seq | connections, allocates, retries, observes, decays,
//	          categories, records 7 x i64 | u16 n | tenant
//	ack       u16 n1, n2 | tenant | algorithm
//	alloc     u64 seq | alloc 4 x f64
//	pong      u64 seq
//	error     u64 seq | u16 n | message
//	drain     empty
//
// task_id is signed because it is the record's significance value. A stats
// request sends the counters zeroed. The lengths come before all of the
// strings, so a length that wrapped its u16 can never add up to the payload.
// A peer whose first frame is not a register frame under serveMagic is on
// another protocol.

const (
	wireVersion = 1
	// serveMagic opens a register payload: "AD" (allocd), then the version.
	serveMagic uint32 = 'A' | 'D'<<8 | wireVersion<<16

	statsCounters = 7
)

// layout is one frame type's payload: fixed bytes, the last 8×floats of
// them f64s, then strs u16 lengths, then the strings.
type layout struct{ fixed, floats, strs int }

var layouts = [...]layout{
	TypeRegister: {fixed: 4 + 8, strs: 2},
	TypeRequest:  {fixed: 8 + 8, strs: 1},
	TypeRetry:    {fixed: 8 + 8 + 1 + wire.VectorSize, floats: 4, strs: 1},
	TypeObserve:  {fixed: 8 + wire.VectorSize + 8, floats: 5, strs: 1},
	TypePing:     {fixed: 8},
	TypeStats:    {fixed: 8 + 8*statsCounters, strs: 1},
	TypeAck:      {strs: 2},
	TypeAlloc:    {fixed: 8 + wire.VectorSize, floats: 4},
	TypePong:     {fixed: 8},
	TypeError:    {fixed: 8, strs: 1},
	TypeDrain:    {},
}

// strings cuts the (at most two) strings out of p, a payload at least as
// long as the layout's fixed part and lengths; ok says whether the rest of p
// is exactly what those lengths add up to.
func (l layout) strings(p []byte) (a, b []byte, ok bool) {
	var n [2]int
	for i := 0; i < l.strs; i++ {
		n[i] = int(binary.LittleEndian.Uint16(p[l.fixed+2*i:]))
	}
	tail := p[l.fixed+2*l.strs:]
	if len(tail) != n[0]+n[1] {
		return nil, nil, false
	}
	return tail[:n[0]], tail[n[0]:], true
}

// checkPayload is every check a payload must pass, for the decoder before it
// reads the fields out and for the encoder on what it just wrote: a known
// type, the register magic, the exact length its layout and string lengths
// say, UTF-8 strings, known resource kinds, and no NaN or infinity in any
// float.
func checkPayload(typ FrameType, p []byte) error {
	if typ == 0 || int(typ) >= len(layouts) {
		return wire.Malformed("unknown frame type %d", typ)
	}
	if typ == TypeRegister && len(p) >= 4 {
		if magic := binary.LittleEndian.Uint32(p); magic != serveMagic {
			return &wire.FrameError{Cause: fmt.Errorf("%w: registration magic %#x, want %#x", wire.ErrProtocolMismatch, magic, serveMagic)}
		}
	}
	l := layouts[typ]
	if len(p) < l.fixed+2*l.strs {
		return wire.Malformed("type %d frame with a %d-byte payload", typ, len(p))
	}
	a, b, ok := l.strings(p)
	switch {
	case !ok:
		return wire.Malformed("type %d frame with a %d-byte payload", typ, len(p))
	case !utf8.Valid(a) || !utf8.Valid(b):
		return wire.Malformed("string in a type %d frame is not UTF-8", typ)
	case typ == TypeRetry && resources.KindSet(p[16])&^resources.AllKinds != 0:
		return wire.Malformed("unknown resource kind in %#b", p[16])
	case !wire.Finite(p[l.fixed-8*l.floats : l.fixed]):
		return wire.Malformed("non-finite value in a type %d frame", typ)
	}
	return nil
}

// appendFrame appends f as one frame to dst: the fields its type carries,
// nothing else. What it wrote goes through the decoder's own checkPayload,
// so it refuses exactly what the peer would — a string over 64 KiB or not
// UTF-8, a non-finite float, an unknown type or resource kind — and a bad
// field costs the sender an error, not its connection. On error dst is
// returned as it was.
func appendFrame(dst []byte, f *Frame) ([]byte, error) {
	le := binary.LittleEndian
	start := len(dst)
	dst = wire.AppendHeader(dst, byte(f.Type))
	switch f.Type {
	case TypeRegister:
		dst = le.AppendUint64(le.AppendUint32(dst, serveMagic), f.Seed)
		dst = appendStrings(dst, f.Tenant, f.Algorithm)
	case TypeRequest, TypeRetry:
		dst = le.AppendUint64(le.AppendUint64(dst, f.Seq), uint64(f.TaskID))
		if f.Type == TypeRetry {
			dst = wire.AppendVector(append(dst, byte(f.Exceeded)), f.Prev)
		}
		dst = appendStrings(dst, f.Category)
	case TypeObserve:
		dst = wire.AppendVector(le.AppendUint64(dst, uint64(f.TaskID)), f.Peak)
		dst = appendStrings(wire.AppendFloat(dst, f.Runtime), f.Category)
	case TypePing, TypePong:
		dst = le.AppendUint64(dst, f.Seq)
	case TypeStats:
		st := &f.Stats
		dst = le.AppendUint64(dst, f.Seq)
		for _, n := range [statsCounters]int64{int64(st.Connections), st.Allocates, st.Retries,
			st.Observes, st.Decays, int64(st.Categories), int64(st.Records)} {
			dst = le.AppendUint64(dst, uint64(n))
		}
		dst = appendStrings(dst, st.Tenant)
	case TypeAck:
		dst = appendStrings(dst, f.Tenant, f.Algorithm)
	case TypeAlloc:
		dst = wire.AppendVector(le.AppendUint64(dst, f.Seq), f.Alloc)
	case TypeError:
		dst = appendStrings(le.AppendUint64(dst, f.Seq), f.Error)
	}
	if err := checkPayload(f.Type, dst[start+wire.Header:]); err != nil {
		return dst[:start], fmt.Errorf("serve: encode frame: %v", errors.Unwrap(err))
	}
	wire.SetLength(dst[start:])
	return dst, nil
}

// appendStrings appends the strings' u16 lengths, then their bytes.
func appendStrings(dst []byte, strs ...string) []byte {
	for _, s := range strs {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	}
	for _, s := range strs {
		dst = append(dst, s...)
	}
	return dst
}

// frameReader decodes the frames of one connection into a reused Frame.
// Malformed frames return a *wire.FrameError; transport failures return the
// underlying error.
type frameReader struct{ fr *wire.Reader }

func newFrameReader(r io.Reader) frameReader { return frameReader{wire.NewReader(r)} }

// next reads the next frame into f, resetting f first.
func (r frameReader) next(f *Frame) error {
	typ, p, err := r.fr.Next()
	if err != nil {
		return err
	}
	return r.decode(typ, p, f)
}

// decode parses one payload into f, resetting f first.
func (r frameReader) decode(typ byte, p []byte, f *Frame) error {
	*f = Frame{Type: FrameType(typ)}
	if err := checkPayload(f.Type, p); err != nil {
		return err
	}
	le := binary.LittleEndian
	a, b, _ := layouts[f.Type].strings(p)
	switch f.Type {
	case TypeRegister:
		f.Seed = le.Uint64(p[4:])
		f.Tenant, f.Algorithm = r.fr.Intern(a), r.fr.Intern(b)
	case TypeRequest, TypeRetry:
		f.Seq, f.TaskID = le.Uint64(p), int(int64(le.Uint64(p[8:])))
		if f.Type == TypeRetry {
			f.Exceeded, f.Prev = resources.KindSet(p[16]), wire.Vector(p[17:])
		}
		f.Category = r.fr.Intern(a)
	case TypeObserve:
		f.TaskID = int(int64(le.Uint64(p)))
		f.Peak, f.Runtime = wire.Vector(p[8:]), wire.Float(p[8+wire.VectorSize:])
		f.Category = r.fr.Intern(a)
	case TypePing, TypePong:
		f.Seq = le.Uint64(p)
	case TypeStats:
		f.Seq = le.Uint64(p)
		f.Stats = TenantStats{Tenant: r.fr.Intern(a),
			Connections: int(counter(p, 0)), Allocates: counter(p, 1), Retries: counter(p, 2),
			Observes: counter(p, 3), Decays: counter(p, 4), Categories: int(counter(p, 5)), Records: int(counter(p, 6))}
	case TypeAck:
		f.Tenant, f.Algorithm = r.fr.Intern(a), r.fr.Intern(b)
	case TypeAlloc:
		f.Seq, f.Alloc = le.Uint64(p), wire.Vector(p[8:])
	case TypeError:
		f.Seq, f.Error = le.Uint64(p), r.fr.Intern(a)
	}
	return nil
}

// counter reads the i-th stats counter of a stats payload.
func counter(p []byte, i int) int64 { return int64(binary.LittleEndian.Uint64(p[8+8*i:])) }
