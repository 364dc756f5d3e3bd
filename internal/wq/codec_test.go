package wq

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
	"testing/iotest"

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

// decodeAll reads frames from wire until the stream ends, returning the
// messages and the error that ended it (io.EOF for a clean end).
func decodeAll(wire []byte) ([]Message, error) {
	mr := newMsgReader(bytes.NewReader(wire))
	var out []Message
	for {
		var m Message
		if err := mr.next(&m); err != nil {
			return out, err
		}
		out = append(out, m)
	}
}

// TestFrameGolden pins the wire layout, one hand-written frame per type:
// changing a byte on the wire means editing this table on purpose. The floats
// are 1 = 3ff0…, 2 = 4000…, 0.5 = 3fe0…, 2.5 = 4004…, 1024 = 4090…, all
// little-endian like every integer.
func TestFrameGolden(t *testing.T) {
	cases := []struct {
		name string
		msg  Message
		hex  string
	}{
		{"register", Message{Type: MsgRegister, Capacity: resources.New(1, 1024, 2, 0)}, `
			24000000 01
			57510100
			000000000000f03f 0000000000009040 0000000000000040 0000000000000000`},
		{"task", Message{Type: MsgTask, TaskID: 258, Category: "fit",
			Alloc: resources.New(2, 1024, 1, 0), Peak: resources.New(0.5, 1, 1, 2.5), Runtime: 2.5}, `
			55000000 02
			0201000000000000
			0300 666974
			0000000000000040 0000000000009040 000000000000f03f 0000000000000000
			000000000000e03f 000000000000f03f 000000000000f03f 0000000000000440
			0000000000000440`},
		{"result success", Message{Type: MsgResult, TaskID: 258, Status: StatusSuccess, Duration: 2.5}, `
			12000000 03
			0201000000000000 01 00 0000000000000440`},
		{"result exhausted", Message{Type: MsgResult, TaskID: 1, Status: StatusExhausted,
			Exceeded: 1<<resources.Memory | 1<<resources.Time, Duration: 0.5}, `
			12000000 03
			0100000000000000 02 0a 000000000000e03f`},
		{"shutdown", Message{Type: MsgShutdown}, `00000000 04`},
		{"ping", Message{Type: MsgPing}, `00000000 05`},
		{"pong", Message{Type: MsgPong}, `00000000 06`},
	}
	var stream []byte
	for _, c := range cases {
		want := unhex(t, c.hex)
		got, err := appendMessage(nil, &c.msg)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: encoded\n %x (%v), want\n %x", c.name, got, err, want)
		}
		stream = append(stream, want...)
	}
	msgs, err := decodeAll(stream)
	if err != io.EOF || len(msgs) != len(cases) {
		t.Fatalf("decoded %d of %d golden frames: %v", len(msgs), len(cases), err)
	}
	for i, c := range cases {
		if msgs[i] != c.msg {
			t.Errorf("%s: decoded %+v, want %+v", c.name, msgs[i], c.msg)
		}
	}
}

// TestAppendMessageNonFiniteFloat: no float field of any frame type carries a
// NaN or an infinity onto the wire, and none is taken off it.
func TestAppendMessageNonFiniteFloat(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		task := Message{Type: MsgTask, TaskID: 1, Category: "c"}
		for name, m := range map[string]Message{
			"capacity": {Type: MsgRegister, Capacity: resources.Vector{1, v, 1, 1}},
			"alloc":    {Type: MsgTask, Alloc: resources.Vector{v, 0, 0, 0}},
			"peak":     {Type: MsgTask, Peak: resources.Vector{0, 0, 0, v}},
			"runtime":  {Type: MsgTask, Runtime: v},
			"duration": {Type: MsgResult, Status: StatusSuccess, Duration: v},
		} {
			if got, err := appendMessage([]byte("kept"), &m); err == nil || string(got) != "kept" {
				t.Errorf("appendMessage took a %s of %v (left %q)", name, v, got)
			}
		}
		// The same values patched into otherwise valid frames.
		frame := encodeFrames(t, &task)
		for off := len(frame) - 8; off >= wire.Header+8+2+len(task.Category); off -= 8 {
			bad := append([]byte(nil), frame...)
			binary.LittleEndian.PutUint64(bad[off:], math.Float64bits(v))
			var ferr *wire.FrameError
			if _, err := decodeAll(bad); !errors.As(err, &ferr) {
				t.Errorf("task frame with %v at offset %d: %v, want a *wire.FrameError", v, off, err)
			}
		}
	}
}

// TestAppendMessageRefuses: the encoder refuses what the decoder on the other
// end would, so a bad field costs the sender an error, not the peer its
// connection.
func TestAppendMessageRefuses(t *testing.T) {
	for name, m := range map[string]Message{
		"zero message":         {},
		"unknown type":         {Type: MsgPong + 1},
		"negative task ID":     {Type: MsgTask, TaskID: -1},
		"negative result ID":   {Type: MsgResult, TaskID: -1, Status: StatusSuccess},
		"category too long":    {Type: MsgTask, Category: strings.Repeat("x", maxCategory+1)},
		"category not UTF-8":   {Type: MsgTask, Category: "a\xffb"},
		"result sans status":   {Type: MsgResult},
		"unknown status":       {Type: MsgResult, Status: StatusExhausted + 1},
		"unknown kind in mask": {Type: MsgResult, Status: StatusExhausted, Exceeded: 1 << resources.NumKinds},
	} {
		if got, err := appendMessage(nil, &m); err == nil {
			t.Errorf("%s: encoded as %x", name, got)
		}
	}
}

// TestDecodeMessageRejects: every frame here is malformed — a *wire.FrameError,
// which the manager counts in Stats.DecodeErrors — and none is an I/O error.
func TestDecodeMessageRejects(t *testing.T) {
	f64 := strings.Repeat("00", 8)
	vec := strings.Repeat(f64, 4)
	for name, c := range map[string]struct {
		hex string
		is  error
	}{
		"type 0":                     {hex: "00000000 00"},
		"type 7":                     {hex: "00000000 07"},
		"ping with a payload":        {hex: "01000000 05 00"},
		"register short":             {hex: "23000000 01 57510100" + vec[2:]},
		"register long":              {hex: "25000000 01 57510100" + vec + "00"},
		"register other magic":       {hex: "24000000 01 58510100" + vec, is: wire.ErrProtocolMismatch},
		"register version 2":         {hex: "24000000 01 57510200" + vec, is: wire.ErrProtocolMismatch},
		"register NaN capacity":      {hex: "24000000 01 57510100" + vec[16:] + "000000000000f87f"},
		"task shorter than fixed":    {hex: "10000000 02" + f64 + f64},
		"task category overruns":     {hex: "52000000 02" + f64 + "0100" + vec + vec + f64},
		"task category underruns":    {hex: "54000000 02" + f64 + "0100 6162" + vec + vec + f64},
		"task category not UTF-8":    {hex: "53000000 02" + f64 + "0100 ff" + vec + vec + f64},
		"task ID past MaxInt":        {hex: "52000000 02 0000000000000080 0000" + vec + vec + f64},
		"task +Inf runtime":          {hex: "52000000 02" + f64 + "0000" + vec + vec + "000000000000f07f"},
		"result short":               {hex: "11000000 03" + f64 + "01 00" + f64[2:]},
		"result long":                {hex: "13000000 03" + f64 + "01 00" + f64 + "00"},
		"result status 0":            {hex: "12000000 03" + f64 + "00 00" + f64},
		"result status 3":            {hex: "12000000 03" + f64 + "03 00" + f64},
		"result exceeded bit 4":      {hex: "12000000 03" + f64 + "02 10" + f64},
		"result ID past MaxInt":      {hex: "12000000 03 ffffffffffffffff 01 00" + f64},
		"result -Inf duration":       {hex: "12000000 03" + f64 + "01 00 000000000000f0ff"},
		"length prefix past the cap": {hex: "01001000 05", is: wire.ErrFrameTooLarge},
		"JSON":                       {hex: hex.EncodeToString([]byte(`{"type":"ping"}` + "\n")), is: wire.ErrFrameTooLarge},
	} {
		msgs, err := decodeAll(unhex(t, c.hex))
		var ferr *wire.FrameError
		if len(msgs) != 0 || !errors.As(err, &ferr) {
			t.Errorf("%s: decoded %+v, error %v; want no frame and a *wire.FrameError", name, msgs, err)
		} else if c.is != nil && !errors.Is(err, c.is) {
			t.Errorf("%s: error %v does not wrap %v", name, err, c.is)
		}
	}
	// A stream that ends inside a frame is the connection's failure, not the
	// frame's: nothing to count as a decode error.
	whole := encodeFrames(t, &Message{Type: MsgResult, TaskID: 1, Status: StatusSuccess})
	for cut := 1; cut < len(whole); cut++ {
		if _, err := decodeAll(whole[:cut]); err != io.ErrUnexpectedEOF {
			t.Errorf("stream cut at byte %d of %d: %v, want io.ErrUnexpectedEOF", cut, len(whole), err)
		}
	}
}

// TestMsgReaderLargeFrame carries the largest legal frame — sixteen times the
// reader's standing buffer, and past wire.MaxStage — through an outbox and
// msgReader on one-byte and single reads, with small frames around it. (How
// the buffer grows for it and shrinks back is wire's
// TestReaderLargeFrameShrinksBack.)
func TestMsgReaderLargeFrame(t *testing.T) {
	big := strings.Repeat("x", maxCategory)
	msgs := []Message{
		{Type: MsgPing},
		{Type: MsgTask, TaskID: 1, Category: big, Alloc: resources.New(1, 2, 3, 4), Runtime: 5},
		{Type: MsgResult, TaskID: 1, Status: StatusSuccess, Duration: 5},
		{Type: MsgPong},
	}
	mine, peer := loopPipe()
	out := wire.NewOutbox(mine)
	for i := range msgs {
		if err := post(out, &msgs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := out.Close(); err != nil { // writes what is staged
		t.Fatal(err)
	}
	mine.Close()
	stream, err := io.ReadAll(peer)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]io.Reader{
		"one-byte-reads": iotest.OneByteReader(bytes.NewReader(stream)),
		"single-read":    bytes.NewReader(stream),
	} {
		mr := newMsgReader(r)
		var got Message
		for i, want := range msgs {
			if err := mr.next(&got); err != nil {
				t.Fatalf("%s: frame %d: %v", name, i, err)
			}
			if got != want {
				t.Fatalf("%s: frame %d mismatch (category len %d vs %d)",
					name, i, len(got.Category), len(want.Category))
			}
		}
		if err := mr.next(&got); err != io.EOF {
			t.Fatalf("%s: expected EOF after last frame, got %v", name, err)
		}
	}
}

// TestDecodeAllocatesNothing: category names are interned, so a connection's
// steady-state decode is allocation-free.
func TestDecodeAllocatesNothing(t *testing.T) {
	frames := encodeFrames(t,
		&Message{Type: MsgTask, TaskID: 1, Category: "fit", Alloc: resources.New(1, 2, 3, 4), Runtime: 1},
		&Message{Type: MsgResult, TaskID: 1, Status: StatusExhausted, Exceeded: 1 << resources.Disk, Duration: 1},
		&Message{Type: MsgPong})
	src := bytes.NewReader(nil)
	mr := newMsgReader(src)
	var m Message
	round := func() {
		src.Reset(frames)
		for i := 0; i < 3; i++ {
			if err := mr.next(&m); err != nil {
				t.Fatal(err)
			}
		}
	}
	round()
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Errorf("steady-state decode of three frames allocates %v times", n)
	}
}

// fuzzMessage builds a message of the type typ selects out of the fuzzer's
// values, only the fields that type carries set.
func fuzzMessage(typ uint8, id uint64, category string, status, mask uint8, a, b, c, d float64) Message {
	m := Message{Type: MsgType(typ%uint8(MsgPong)) + 1}
	switch m.Type {
	case MsgRegister:
		m.Capacity = resources.Vector{a, b, c, d}
	case MsgTask:
		m.TaskID, m.Category = int(id), category
		m.Alloc, m.Peak, m.Runtime = resources.Vector{a, b, c, d}, resources.Vector{d, c, -b, -a}, c
	case MsgResult:
		m.TaskID, m.Status, m.Exceeded, m.Duration = int(id), Status(status), resources.KindSet(mask), a
	}
	return m
}

// FuzzWQMessageCodec is the round-trip pin: a message either is refused by the
// encoder — exactly when it holds something the wire cannot carry — or
// encodes to one frame that decodes back to the same message, bit for bit
// (negative zeros, denormals, the longest category, every exceeded mask).
func FuzzWQMessageCodec(f *testing.F) {
	denormal := math.Float64frombits(1)
	f.Add(uint8(0), uint64(0), "", uint8(0), uint8(0), 16.0, 64000.0, 64000.0, 3600.0)
	f.Add(uint8(1), uint64(3), "fit", uint8(0), uint8(0), 1.5, 2048.0, 30.25, 0.0)
	f.Add(uint8(1), uint64(math.MaxInt), strings.Repeat("é", maxCategory/2), uint8(0), uint8(0), math.Copysign(0, -1), denormal, math.MaxFloat64, -denormal)
	f.Add(uint8(1), uint64(1), "oom \xff\xfe", uint8(0), uint8(0), 1.0, 1.0, 1.0, 1.0)
	f.Add(uint8(1), uint64(1)<<63, "z", uint8(0), uint8(0), 1.0, 1.0, 1.0, 1.0)
	f.Add(uint8(1), uint64(1), strings.Repeat("x", maxCategory+1), uint8(0), uint8(0), 1.0, 1.0, 1.0, 1.0)
	f.Add(uint8(1), uint64(12), "nan", uint8(0), uint8(0), 1.0, math.NaN(), 0.0, 99.0)
	f.Add(uint8(2), uint64(9), "", uint8(StatusSuccess), uint8(0), 2.5, 0.0, 0.0, 0.0)
	for mask := uint8(0); mask <= uint8(resources.AllKinds)+1; mask++ { // every set of kinds, and one bit too many
		f.Add(uint8(2), uint64(9), "", uint8(StatusExhausted), mask, math.Copysign(0, -1), 0.0, 0.0, 0.0)
	}
	f.Add(uint8(2), uint64(9), "", uint8(3), uint8(0), 1.0, 0.0, 0.0, 0.0)
	f.Add(uint8(2), uint64(9), "", uint8(StatusSuccess), uint8(0), math.Inf(-1), 0.0, 0.0, 0.0)
	f.Add(uint8(4), uint64(0), "", uint8(0), uint8(0), 0.0, 0.0, 0.0, 0.0)
	f.Fuzz(func(t *testing.T, typ uint8, id uint64, category string, status, mask uint8, a, b, c, d float64) {
		msg := fuzzMessage(typ, id, category, status, mask, a, b, c, d)
		sendable := true
		for _, v := range append(append(msg.Capacity[:], msg.Alloc[:]...), append(msg.Peak[:], msg.Runtime, msg.Duration)...) {
			sendable = sendable && !math.IsNaN(v) && !math.IsInf(v, 0)
		}
		switch msg.Type {
		case MsgTask:
			sendable = sendable && msg.TaskID >= 0 && validCategory(category)
		case MsgResult:
			sendable = sendable && msg.TaskID >= 0 && (status == 1 || status == 2) && resources.KindSet(mask)&^resources.AllKinds == 0
		}
		frame, err := appendMessage(nil, &msg)
		if (err == nil) != sendable {
			t.Fatalf("message %+v: sendable %v, but encoding says %v", msg, sendable, err)
		}
		if err != nil {
			return
		}
		if n := binary.LittleEndian.Uint32(frame); int(n) != len(frame)-wire.Header || n > wire.MaxFrame {
			t.Fatalf("length prefix %d on a %d-byte frame", n, len(frame))
		}
		// Through one reader twice: its scratch must not leak between frames.
		msgs, err := decodeAll(append(frame, frame...))
		if err != io.EOF || len(msgs) != 2 || msgs[0] != msgs[1] {
			t.Fatalf("decoding %x twice: %+v, %v", frame, msgs, err)
		}
		// Struct equality calls -0 and 0 the same; the bytes do not.
		again, err := appendMessage(nil, &msgs[0])
		if err != nil || msgs[0] != msg || !bytes.Equal(again, frame) {
			t.Fatalf("round trip of %+v:\n got %+v (%v)\n %x\n %x", msg, msgs[0], err, frame, again)
		}
	})
}

// FuzzWQMessageDecode feeds arbitrary bytes to a reader: it never panics or
// reads past a frame, every frame it accepts re-encodes to exactly the bytes
// it came from, and the stream ends in EOF, a truncation, or a *wire.FrameError.
func FuzzWQMessageDecode(f *testing.F) {
	valid := encodeFrames(f,
		&Message{Type: MsgRegister, Capacity: resources.PaperWorker()},
		&Message{Type: MsgTask, TaskID: 1, Category: "fit", Alloc: resources.New(1, 2, 3, 4), Peak: resources.New(1, 1, 1, 1), Runtime: 1},
		&Message{Type: MsgResult, TaskID: 1, Status: StatusExhausted, Exceeded: 1 << resources.Memory, Duration: 0.5},
		&Message{Type: MsgPing}, &Message{Type: MsgPong}, &Message{Type: MsgShutdown})
	f.Add(valid)
	f.Add(valid[:len(valid)-7])
	f.Add([]byte(`{"type":"register","capacity":[16,64000,64000,3600]}` + "\n"))
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Add([]byte{1, 0, 0, 0, 5, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 2})
	f.Add(unhex(f, "12000000 03 0100000000000000 03 10 000000000000f87f"))
	f.Add(unhex(f, "53000000 02 0100000000000000 0100 ff"))
	f.Fuzz(func(t *testing.T, data []byte) {
		mr := newMsgReader(bytes.NewReader(data))
		off := 0
		for {
			var m Message
			err := mr.next(&m)
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
			again, err := appendMessage(nil, &m)
			if err != nil || off+len(again) > len(data) || !bytes.Equal(again, data[off:off+len(again)]) {
				t.Fatalf("accepted %+v at byte %d, which re-encodes to %x (%v); the stream is %x", m, off, again, err, data[off:])
			}
			off += len(again)
		}
	})
}
