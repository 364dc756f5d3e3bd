package serve

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
	"testing/iotest"
	"unicode/utf8"

	"dynalloc/internal/resources"
	"dynalloc/internal/wire"
)

// unhex decodes a hex dump; spaces and newlines are for the reader.
func unhex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(strings.Join(strings.Fields(s), ""))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// decodeAll reads frames from stream until it ends, returning the frames and
// the error that ended it (io.EOF for a clean end).
func decodeAll(stream []byte) ([]Frame, error) {
	fr := newFrameReader(bytes.NewReader(stream))
	var out []Frame
	for {
		var f Frame
		if err := fr.next(&f); err != nil {
			return out, err
		}
		out = append(out, f)
	}
}

// TestFrameGolden pins the wire layout, one hand-written frame per type:
// changing a byte on the wire means editing this table on purpose. The floats
// are 1 = 3ff0…, 2 = 4000…, 0.5 = 3fe0…, 2.5 = 4004…, 1024 = 4090…, all
// little-endian like every integer; "fit" is 666974, "wf" 7766.
func TestFrameGolden(t *testing.T) {
	cases := []struct {
		name  string
		frame Frame
		hex   string
	}{
		{"register", Frame{Type: TypeRegister, Tenant: "wf", Algorithm: "max-seen", Seed: 7}, `
			1a000000 01
			41440100 0700000000000000
			0200 0800 7766 6d61782d7365656e`},
		{"request", Frame{Type: TypeRequest, Seq: 3, TaskID: 258, Category: "fit"}, `
			15000000 02
			0300000000000000 0201000000000000 0300 666974`},
		{"retry", Frame{Type: TypeRetry, Seq: 4, TaskID: -1, Exceeded: 1<<resources.Memory | 1<<resources.Time,
			Prev: resources.New(1, 1024, 2, 0), Category: "fit"}, `
			36000000 03
			0400000000000000 ffffffffffffffff 0a
			000000000000f03f 0000000000009040 0000000000000040 0000000000000000
			0300 666974`},
		{"observe", Frame{Type: TypeObserve, TaskID: 258, Peak: resources.New(0.5, 1, 1, 2.5), Runtime: 2.5, Category: "fit"}, `
			35000000 04
			0201000000000000
			000000000000e03f 000000000000f03f 000000000000f03f 0000000000000440
			0000000000000440 0300 666974`},
		{"ping", Frame{Type: TypePing, Seq: 1}, `08000000 05 0100000000000000`},
		{"stats", Frame{Type: TypeStats, Seq: 2, Stats: TenantStats{Tenant: "wf", Connections: 1, Allocates: 2,
			Retries: 3, Observes: 4, Decays: 5, Categories: 6, Records: 7}}, `
			44000000 06
			0200000000000000
			0100000000000000 0200000000000000 0300000000000000 0400000000000000
			0500000000000000 0600000000000000 0700000000000000
			0200 7766`},
		{"ack", Frame{Type: TypeAck, Tenant: "wf", Algorithm: "max-seen"}, `
			0e000000 07
			0200 0800 7766 6d61782d7365656e`},
		{"alloc", Frame{Type: TypeAlloc, Seq: 3, Alloc: resources.New(2, 1024, 1, 0)}, `
			28000000 08
			0300000000000000
			0000000000000040 0000000000009040 000000000000f03f 0000000000000000`},
		{"pong", Frame{Type: TypePong, Seq: 1}, `08000000 09 0100000000000000`},
		{"error", Frame{Type: TypeError, Seq: 9, Error: "no"}, `0c000000 0a 0900000000000000 0200 6e6f`},
		{"drain", Frame{Type: TypeDrain}, `00000000 0b`},
	}
	var stream []byte
	for _, c := range cases {
		want := unhex(t, c.hex)
		got, err := appendFrame(nil, &c.frame)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: encoded\n %x (%v), want\n %x", c.name, got, err, want)
		}
		stream = append(stream, want...)
	}
	frames, err := decodeAll(stream)
	if err != io.EOF || len(frames) != len(cases) {
		t.Fatalf("decoded %d of %d golden frames: %v", len(frames), len(cases), err)
	}
	for i, c := range cases {
		if frames[i] != c.frame {
			t.Errorf("%s: decoded %+v, want %+v", c.name, frames[i], c.frame)
		}
	}
}

// TestAppendFrameNonFiniteFloat: no float field of any frame type carries a
// NaN or an infinity onto the wire, and none is taken off it.
func TestAppendFrameNonFiniteFloat(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, f := range map[string]Frame{
			"prev":    {Type: TypeRetry, Prev: resources.Vector{1, v, 1, 1}},
			"peak":    {Type: TypeObserve, Peak: resources.Vector{0, 0, 0, v}},
			"runtime": {Type: TypeObserve, Runtime: v},
			"alloc":   {Type: TypeAlloc, Alloc: resources.Vector{v, 0, 0, 0}},
		} {
			if got, err := appendFrame([]byte("kept"), &f); err == nil || string(got) != "kept" {
				t.Errorf("appendFrame took a %s of %v (left %q)", name, v, got)
			}
		}
		// The same value patched into the last float of a valid frame.
		frame, err := appendFrame(nil, &Frame{Type: TypeObserve, TaskID: 1, Category: "c"})
		if err != nil {
			t.Fatal(err)
		}
		wire.AppendFloat(frame[:len(frame)-2-1-8], v)
		var ferr *wire.FrameError
		if _, err := decodeAll(frame); !errors.As(err, &ferr) {
			t.Errorf("observe frame with runtime %v: %v, want a *wire.FrameError", v, err)
		}
	}
}

// TestDecodeFrameRejects: every frame here is malformed — a *wire.FrameError,
// which the server counts in DecodeErrors — and none is an I/O error.
func TestDecodeFrameRejects(t *testing.T) {
	f64 := strings.Repeat("00", 8)
	vec := strings.Repeat(f64, 4)
	for name, c := range map[string]struct {
		hex string
		is  error
	}{
		"type 0":                   {hex: "00000000 00"},
		"type 12":                  {hex: "00000000 0c"},
		"drain with a payload":     {hex: "01000000 0b 00"},
		"ping short":               {hex: "07000000 05" + f64[2:]},
		"ping long":                {hex: "09000000 05" + f64 + "00"},
		"register other magic":     {hex: "10000000 01 57510100" + f64 + "0000 0000", is: wire.ErrProtocolMismatch},
		"register version 2":       {hex: "10000000 01 41440200" + f64 + "0000 0000", is: wire.ErrProtocolMismatch},
		"wq register":              {hex: "24000000 01 57510100" + vec, is: wire.ErrProtocolMismatch},
		"register cut in lengths":  {hex: "0e000000 01 41440100" + f64 + "0000"},
		"request string overruns":  {hex: "13000000 02" + f64 + f64 + "0200 61"},
		"request string underruns": {hex: "15000000 02" + f64 + f64 + "0200 616263"},
		"ack strings overrun":      {hex: "06000000 07 0100 0200 6162"},
		"category not UTF-8":       {hex: "13000000 02" + f64 + f64 + "0100 ff"},
		"error not UTF-8":          {hex: "0b000000 0a" + f64 + "0100 c3"},
		"retry exceeded bit 4":     {hex: "33000000 03" + f64 + f64 + "10" + vec + "0000"},
		"retry NaN prev":           {hex: "33000000 03" + f64 + f64 + "00" + vec[16:] + "000000000000f87f 0000"},
		"observe +Inf runtime":     {hex: "32000000 04" + f64 + vec + "000000000000f07f 0000"},
		"alloc -Inf":               {hex: "28000000 08" + f64 + "000000000000f0ff" + vec[16:]},
		"length past the cap":      {hex: "01001000 05", is: wire.ErrFrameTooLarge},
		"JSON":                     {hex: hex.EncodeToString([]byte(`{"type":"ping","seq":1}` + "\n")), is: wire.ErrFrameTooLarge},
	} {
		frames, err := decodeAll(unhex(t, c.hex))
		var ferr *wire.FrameError
		if len(frames) != 0 || !errors.As(err, &ferr) {
			t.Errorf("%s: decoded %+v, error %v; want no frame and a *wire.FrameError", name, frames, err)
		} else if c.is != nil && !errors.Is(err, c.is) {
			t.Errorf("%s: error %v does not wrap %v", name, err, c.is)
		}
	}
	// A stream that ends inside a frame is the connection's failure, not the
	// frame's: nothing to count as a decode error.
	whole, err := appendFrame(nil, &Frame{Type: TypeRequest, Seq: 1, Category: "c"})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(whole); cut++ {
		if _, err := decodeAll(whole[:cut]); err != io.ErrUnexpectedEOF {
			t.Errorf("stream cut at byte %d of %d: %v, want io.ErrUnexpectedEOF", cut, len(whole), err)
		}
	}
}

// TestFrameReader exercises the framing through the frame decoder: one-byte
// reads (every frame split across fills), a frame sixteen times the reader's
// standing buffer, and a clean EOF after the last frame.
func TestFrameReader(t *testing.T) {
	big := strings.Repeat("x", math.MaxUint16)
	frames := []Frame{
		{Type: TypeRequest, Seq: 1, Category: "fit", TaskID: 1},
		{Type: TypeObserve, Category: big, TaskID: 2, Peak: resources.New(1, 2, 3, 4), Runtime: 5},
		{Type: TypePing, Seq: 3},
		{Type: TypeStats, Seq: 4, Stats: TenantStats{Tenant: big, Records: 9}},
		{Type: TypePong, Seq: 4},
	}
	var stream []byte
	for i := range frames {
		var err error
		if stream, err = appendFrame(stream, &frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	for name, r := range map[string]io.Reader{
		"one-byte-reads": iotest.OneByteReader(bytes.NewReader(stream)),
		"single-read":    bytes.NewReader(stream),
	} {
		fr := newFrameReader(r)
		var got Frame
		for i, want := range frames {
			if err := fr.next(&got); err != nil {
				t.Fatalf("%s: frame %d: %v", name, i, err)
			}
			if got != want {
				t.Fatalf("%s: frame %d:\n got %+v\nwant %+v", name, i, got, want)
			}
		}
		if err := fr.next(&got); err != io.EOF {
			t.Fatalf("%s: expected EOF after last frame, got %v", name, err)
		}
	}
}

// TestDecodeAllocatesNothing: strings are interned, so a connection's
// steady-state decode of the hot frames, both directions, is allocation-free.
func TestDecodeAllocatesNothing(t *testing.T) {
	var stream []byte
	for _, f := range []Frame{
		{Type: TypeRequest, Seq: 1, TaskID: 1, Category: "fit"},
		{Type: TypeRetry, Seq: 2, TaskID: 1, Category: "fit", Prev: resources.New(1, 2, 3, 4), Exceeded: 1 << resources.Memory},
		{Type: TypeObserve, TaskID: 1, Category: "fit", Peak: resources.New(1, 2, 3, 4), Runtime: 1},
		{Type: TypeAlloc, Seq: 1, Alloc: resources.New(1, 2, 3, 4)},
		{Type: TypePong, Seq: 3},
	} {
		var err error
		if stream, err = appendFrame(stream, &f); err != nil {
			t.Fatal(err)
		}
	}
	src := bytes.NewReader(nil)
	fr := newFrameReader(src)
	var f Frame
	round := func() {
		src.Reset(stream)
		for i := 0; i < 5; i++ {
			if err := fr.next(&f); err != nil {
				t.Fatal(err)
			}
		}
	}
	round()
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Errorf("steady-state decode of five frames allocates %v times", n)
	}
	enc := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(100, func() { enc, _ = appendFrame(enc[:0], &f) }); n != 0 {
		t.Errorf("encoding a frame into a reused buffer allocates %v times", n)
	}
}

// fuzzFrame builds a frame of the type typ selects out of the fuzzer's
// values, only the fields that type carries set. Types 0 and 12 are none.
func fuzzFrame(typ uint8, seq, seed uint64, id int64, s1, s2 string, exc uint8, a, b, c, d float64) Frame {
	f := Frame{Type: FrameType(typ % uint8(TypeDrain+2))}
	v := resources.Vector{a, b, c, d}
	switch f.Type {
	case TypeRegister:
		f.Seed, f.Tenant, f.Algorithm = seed, s1, s2
	case TypeAck:
		f.Tenant, f.Algorithm = s1, s2
	case TypeRequest:
		f.Seq, f.TaskID, f.Category = seq, int(id), s1
	case TypeRetry:
		f.Seq, f.TaskID, f.Category, f.Exceeded, f.Prev = seq, int(id), s1, resources.KindSet(exc), v
	case TypeObserve:
		f.TaskID, f.Category, f.Peak, f.Runtime = int(id), s1, resources.Vector{d, c, -b, -a}, c
	case TypePing, TypePong:
		f.Seq = seq
	case TypeStats:
		f.Seq = seq
		f.Stats = TenantStats{Tenant: s1, Connections: int(id), Allocates: int64(seed), Retries: -id,
			Observes: int64(exc), Decays: id / 3, Categories: int(seq), Records: int(id >> 1)}
	case TypeAlloc:
		f.Seq, f.Alloc = seq, v
	case TypeError:
		f.Seq, f.Error = seq, s1
	}
	return f
}

// FuzzFrameCodec is the round-trip pin: a frame either is refused by the
// encoder — exactly when it holds something the wire cannot carry — or
// encodes to one frame that decodes back to the same frame, bit for bit
// (negative zeros, denormals, 64 KiB strings, every exceeded set), twice
// through one reader, and re-encodes to the same bytes.
func FuzzFrameCodec(f *testing.F) {
	denormal := math.Float64frombits(1)
	negZero := math.Copysign(0, -1)
	f.Add(uint8(TypeRegister), uint64(0), uint64(7), int64(0), "wf", "max-seen", uint8(0), 0.0, 0.0, 0.0, 0.0)
	f.Add(uint8(TypeRetry), uint64(9), uint64(0), int64(-3), "fit", "", uint8(resources.AllKinds), 1.5, 2048.0, 30.25, negZero)
	f.Add(uint8(TypeObserve), uint64(0), uint64(0), int64(math.MaxInt64), strings.Repeat("é", math.MaxUint16/2), "", uint8(0), denormal, -denormal, math.MaxFloat64, negZero)
	f.Add(uint8(TypeStats), uint64(math.MaxUint64), uint64(1), int64(math.MinInt64), "a<b>&c\u2028", "", uint8(3), 0.0, 0.0, 0.0, 0.0)
	f.Add(uint8(TypeError), uint64(2), uint64(0), int64(0), "oom \xff\xfe", "", uint8(0), 0.0, 0.0, 0.0, 0.0)
	f.Add(uint8(TypeAlloc), uint64(1), uint64(0), int64(0), "", "", uint8(0), math.NaN(), 1.0, 1.0, 1.0)
	f.Add(uint8(TypeRetry), uint64(1), uint64(0), int64(1), "c", "", uint8(1<<resources.NumKinds), 1.0, 1.0, 1.0, 1.0)
	f.Add(uint8(TypeAck), uint64(0), uint64(0), int64(0), strings.Repeat("x", math.MaxUint16+1), "b", uint8(0), 0.0, 0.0, 0.0, 0.0)
	f.Add(uint8(0), uint64(0), uint64(0), int64(0), "", "", uint8(0), 0.0, 0.0, 0.0, 0.0)
	f.Add(uint8(TypeDrain), uint64(0), uint64(0), int64(0), "", "", uint8(0), 0.0, 0.0, 0.0, 0.0)
	f.Fuzz(func(t *testing.T, typ uint8, seq, seed uint64, id int64, s1, s2 string, exc uint8, a, b, c, d float64) {
		fr := fuzzFrame(typ, seq, seed, id, s1, s2, exc, a, b, c, d)
		sendable := fr.Type >= TypeRegister && fr.Type <= TypeDrain && fr.Exceeded&^resources.AllKinds == 0
		for _, s := range []string{fr.Tenant, fr.Algorithm, fr.Category, fr.Error, fr.Stats.Tenant} {
			sendable = sendable && len(s) <= math.MaxUint16 && utf8.ValidString(s)
		}
		for _, v := range append(append(fr.Prev[:], fr.Peak[:]...), append(fr.Alloc[:], fr.Runtime)...) {
			sendable = sendable && !math.IsNaN(v) && !math.IsInf(v, 0)
		}
		frame, err := appendFrame(nil, &fr)
		if (err == nil) != sendable {
			t.Fatalf("frame %+v: sendable %v, but encoding says %v", fr, sendable, err)
		}
		if err != nil {
			return
		}
		frames, err := decodeAll(append(frame, frame...))
		if err != io.EOF || len(frames) != 2 || frames[0] != frames[1] {
			t.Fatalf("decoding %x twice: %+v, %v", frame, frames, err)
		}
		// Struct equality calls -0 and 0 the same; the bytes do not.
		again, err := appendFrame(nil, &frames[0])
		if err != nil || frames[0] != fr || !bytes.Equal(again, frame) {
			t.Fatalf("round trip of %+v:\n got %+v (%v)\n %x\n %x", fr, frames[0], err, frame, again)
		}
	})
}

// FuzzFrameDecode feeds arbitrary bytes to a reader: it never panics or reads
// past a frame, every frame it accepts re-encodes to exactly the bytes it
// came from, and the stream ends in EOF, a truncation, or a *wire.FrameError.
func FuzzFrameDecode(f *testing.F) {
	var valid []byte
	for _, fr := range []Frame{
		{Type: TypeRegister, Tenant: "wf", Algorithm: "exhaustive-bucketing", Seed: 1},
		{Type: TypeRequest, Seq: 1, TaskID: 1, Category: "fit"},
		{Type: TypeRetry, Seq: 2, TaskID: 1, Category: "fit", Prev: resources.New(1, 2, 3, 4), Exceeded: 1 << resources.Memory},
		{Type: TypeObserve, TaskID: 1, Category: "fit", Peak: resources.New(1, 1, 1, 1), Runtime: 1},
		{Type: TypeStats, Seq: 3}, {Type: TypePing, Seq: 4}, {Type: TypeDrain},
	} {
		var err error
		if valid, err = appendFrame(valid, &fr); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-7])
	f.Add([]byte(`{"type":"register","tenant":"t"}` + "\n"))
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Add([]byte{1, 0, 0, 0, 0x0b, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 2})
	f.Add(unhex(f, "06000000 07 0100 0100 ff61"))
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := newFrameReader(bytes.NewReader(data))
		off := 0
		for {
			var fm Frame
			err := fr.next(&fm)
			if err != nil {
				var ferr *wire.FrameError
				if err != io.EOF && err != io.ErrUnexpectedEOF && !errors.As(err, &ferr) {
					t.Fatalf("stream ended in %v", err)
				}
				if err == io.EOF && off != len(data) {
					t.Fatalf("clean end at byte %d of %d", off, len(data))
				}
				return
			}
			again, err := appendFrame(nil, &fm)
			if err != nil || off+len(again) > len(data) || !bytes.Equal(again, data[off:off+len(again)]) {
				t.Fatalf("accepted %+v at byte %d, which re-encodes to %x (%v); the stream is %x", fm, off, again, err, data[off:])
			}
			off += len(again)
		}
	})
}
