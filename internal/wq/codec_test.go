package wq

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"dynalloc/internal/jsonwire"
	"dynalloc/internal/resources"
)

// encodeStdMsg is the reference encoding: exactly what the original engine
// put on the wire via json.Encoder (compact JSON, HTML escaping, trailing
// newline).
func encodeStdMsg(t testing.TB, m *Message) ([]byte, error) {
	t.Helper()
	b, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

func TestAppendMessageMatchesEncodingJSON(t *testing.T) {
	msgs := []Message{
		{},
		{Type: MsgRegister, Capacity: resources.New(16, 64000, 64000, 3600)},
		{Type: MsgTask, TaskID: 42, Category: "fit", Alloc: resources.New(4, 2000, 500, 3600),
			Peak: resources.Vector{1.5, 2048, 0.001, 1e21}, Runtime: 30.25},
		{Type: MsgResult, TaskID: 3, Category: "x", Status: StatusExhausted,
			Duration: 12.5, Exceeded: []string{"memory", "time"}},
		{Type: MsgResult, TaskID: 1, Status: StatusSuccess, Duration: 1e-9,
			Peak: resources.Vector{-1e-7, 9.999999999999999e20, 1e-6, math.MaxFloat64}},
		{Type: MsgPing},
		{Type: MsgShutdown, Category: "a<b>&c"},
		{Type: "", Category: "control:\x01\x1f del:\x7f unicode:\u00e9\u2028\u2029 bad:\xff\xfe"},
		{Type: MsgResult, Duration: -0.0},       // negative zero is ==0: omitted
		{Type: MsgResult, Exceeded: []string{}}, // empty-but-non-nil list still omitted
		// A result as the worker sends it: three all-zero vectors, one byte
		// per element; negative zero keeps its sign as it does in encoding/json.
		{Type: MsgResult, TaskID: 9, Status: StatusSuccess, Duration: 2.5},
		{Type: MsgResult, Peak: resources.Vector{0, math.Copysign(0, -1), 0, 1}},
	}
	for i, m := range msgs {
		want, werr := encodeStdMsg(t, &m)
		got, gerr := appendMessage(nil, &m)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("message %d: error mismatch: json=%v codec=%v", i, werr, gerr)
		}
		if werr != nil {
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("message %d encoding mismatch:\n codec: %s\n  json: %s", i, got, want)
		}
	}
}

func TestAppendMessageNonFiniteFloat(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		m := Message{Type: MsgResult, Duration: v}
		if _, err := appendMessage(nil, &m); err == nil {
			t.Errorf("appendMessage accepted non-finite duration %v", v)
		}
		m = Message{Type: MsgResult, Peak: resources.Vector{0, v, 0, 0}}
		if _, err := appendMessage(nil, &m); err == nil {
			t.Errorf("appendMessage accepted non-finite vector element %v", v)
		}
	}
}

// TestDecodeMessageMatchesEncodingJSON pins the decoder to json.Unmarshal
// semantics on hand-picked tricky documents: duplicate keys, case-folded
// field names, unknown fields, nulls, short/long arrays, escapes.
func TestDecodeMessageMatchesEncodingJSON(t *testing.T) {
	docs := []string{
		`{"type":"task","task_id":3,"category":"fit","capacity":[0,0,0,0],"alloc":[0,0,0,0],"peak":[0,0,0,0]}`,
		`null`,
		`{}`,
		` { "type" : "ping" } `,
		`{"TYPE":"task","Task_ID":9}`, // case-folded field match
		`{"type":"a","type":"b"}`,     // last duplicate wins
		`{"task_id":null,"status":null,"alloc":null}`, // null leaves zero values
		`{"alloc":[1,2]}`,                                // short array zero-pads
		`{"alloc":[1,2,3,4,5,6]}`,                        // long array: extras validated, discarded
		`{"alloc":[1,2,3,4],"alloc":[9]}`,                // duplicate array re-zeroes tail
		`{"exceeded":[]}`,                                // empty list decodes non-nil
		`{"exceeded":["memory","time"],"exceeded":null}`, // null resets to nil
		`{"exceeded":["a",null,"b"]}`,                    // null element -> ""
		`{"unknown":{"deep":[1,{"x":null}]},"task_id":2}`,
		`{"status":"\u0041\u00e9\ud83d\ude00\t\\\" \ud800 \u2028"}`, // escapes incl. lone surrogate
		`{"category":"caf\u00e9 ` + "\xc3\xa9 \xff" + `"}`,          // raw UTF-8 + invalid byte
		`{"runtime":1e-9,"duration":-0.5e+3}`,
		`{"task_id":-7,"duration":0.125}`,
	}
	for _, doc := range docs {
		var dec messageDecoder
		var mine, std Message
		merr := dec.decode([]byte(doc), &mine)
		serr := json.Unmarshal([]byte(doc), &std)
		if (merr == nil) != (serr == nil) {
			t.Fatalf("doc %q: error mismatch: codec=%v json=%v", doc, merr, serr)
		}
		if merr != nil {
			continue
		}
		if !reflect.DeepEqual(mine, std) {
			t.Errorf("doc %q:\n codec: %+v\n  json: %+v", doc, mine, std)
		}
	}
}

// TestDecodeMessageRejects pins decode failures (and that they are reported
// as *jsonwire.DecodeError, which the manager counts in Stats.DecodeErrors):
// every document here must fail both decoders.
func TestDecodeMessageRejects(t *testing.T) {
	docs := []string{
		``, `   `, `not json`, `{`, `{"type"}`, `{"type":}`, `{"type":"a"`,
		`{"type":"a"} trailing`, `[1,2]`, `"frame"`, `123`, `true`,
		`{"task_id":"x"}`, `{"task_id":1.5}`, `{"task_id":1e3}`,
		`{"runtime":01}`, `{"runtime":+1}`, `{"runtime":.5}`, `{"runtime":1.}`,
		`{"alloc":[1,}`, `{"alloc":{"0":1}}`, `{"exceeded":[5]}`,
		`{"type":"bad \u12 escape"}`, `{"type":"bad \q"}`, "{\"type\":\"ctl \x01\"}",
	}
	for _, doc := range docs {
		var dec messageDecoder
		var mine, std Message
		merr := dec.decode([]byte(doc), &mine)
		serr := json.Unmarshal([]byte(doc), &std)
		if serr == nil {
			t.Fatalf("doc %q: expected json.Unmarshal to fail too; fix the test", doc)
		}
		if merr == nil {
			t.Errorf("doc %q: codec accepted a document json rejects", doc)
			continue
		}
		if _, ok := merr.(*jsonwire.DecodeError); !ok {
			t.Errorf("doc %q: error %v is not a *jsonwire.DecodeError", doc, merr)
		}
	}
}

// TestMsgReaderLargeFrame is the regression for the old bufio.Scanner
// framing, which died at its 1 MiB token cap (and defaulted to 64 KiB before
// Buffer was set): a 2 MiB frame must round-trip through frameWriter and
// msgReader on both one-byte and single reads.
func TestMsgReaderLargeFrame(t *testing.T) {
	big := strings.Repeat("x", 2<<20) // 2 MiB, beyond the old scanner cap
	msgs := []Message{
		{Type: MsgTask, TaskID: 1, Category: big, Alloc: resources.New(1, 2, 3, 4), Runtime: 5},
		{Type: MsgResult, TaskID: 1, Category: big, Status: StatusSuccess, Duration: 5},
		{Type: MsgPong},
	}
	var wire bytes.Buffer
	fw := newFrameWriter(&wire)
	for i := range msgs {
		if err := fw.queue(&msgs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.flush(); err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]io.Reader{
		"one-byte-reads": iotest.OneByteReader(bytes.NewReader(wire.Bytes())),
		"single-read":    bytes.NewReader(wire.Bytes()),
	} {
		mr := newMsgReader(r)
		var got Message
		for i, want := range msgs {
			if err := mr.next(&got); err != nil {
				t.Fatalf("%s: frame %d: %v", name, i, err)
			}
			if got.Exceeded != nil {
				got.Exceeded = append([]string(nil), got.Exceeded...)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: frame %d mismatch (category len %d vs %d)",
					name, i, len(got.Category), len(want.Category))
			}
		}
		if err := mr.next(&got); err != io.EOF {
			t.Fatalf("%s: expected EOF after last frame, got %v", name, err)
		}
	}
}

// FuzzWQMessageCodec is the byte-compatibility pin for the encoder and the
// value-compatibility pin for the decoder: for any message, appendMessage
// must produce exactly json.Encoder's bytes, and decoding those bytes must
// match json.Unmarshal field for field (twice, to prove scratch reuse is
// sound).
func FuzzWQMessageCodec(f *testing.F) {
	f.Add("task", "fit", "", "", 3, 1.5, 2048.0, 30.25, 0.0)
	f.Add("result", "x", "exhausted", "memory", 9, 1e-7, 1e21, -0.0, 12.5)
	f.Add("result", "a<b>&c\u2028", "success", "", 0, math.MaxFloat64, 5e-324, 0.1, 1e-9)
	f.Add("register", "oom \xff\xfe", "tab\t\"q\"", "time", 12, math.NaN(), 0.0, 0.0, 99.0)
	f.Add("result", "", "success", "", 7, 0.0, 0.0, 0.0, 2.5) // all-zero vectors, with -a a negative zero
	f.Add("task", "z", "", "", 1, math.Copysign(0, -1), 0.0, math.Copysign(0, -1), 0.0)
	f.Fuzz(func(t *testing.T, typ, category, status, exc string,
		taskID int, a, b, rt, dur float64) {
		msg := Message{
			Type:     typ,
			Capacity: resources.Vector{a, b, -a, a + b},
			TaskID:   taskID,
			Category: category,
			Alloc:    resources.Vector{b, rt, a * 2, -b},
			Peak:     resources.Vector{-rt, a, b, rt},
			Runtime:  rt,
			Status:   status,
			Duration: dur,
		}
		if exc != "" {
			msg.Exceeded = []string{exc, "memory"}
		}
		want, werr := encodeStdMsg(t, &msg)
		got, gerr := appendMessage(nil, &msg)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("error mismatch: json=%v codec=%v (message %+v)", werr, gerr, msg)
		}
		if werr != nil {
			return // non-finite float; both reject
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("encoding mismatch:\n codec: %s\n  json: %s", got, want)
		}
		line := got[:len(got)-1]
		var dec messageDecoder
		var mine, std Message
		if err := dec.decode(line, &mine); err != nil {
			t.Fatalf("codec rejected its own encoding %s: %v", line, err)
		}
		if err := json.Unmarshal(line, &std); err != nil {
			t.Fatalf("json rejected codec encoding %s: %v", line, err)
		}
		if !reflect.DeepEqual(mine, std) {
			t.Fatalf("decode mismatch:\n codec: %+v\n  json: %+v", mine, std)
		}
		// Second decode through the same decoder: the reused scratch (intern
		// table, exceeded backing array, string buffer) must not leak state.
		var again Message
		if err := dec.decode(line, &again); err != nil {
			t.Fatalf("second decode failed: %v", err)
		}
		if !reflect.DeepEqual(again, std) {
			t.Fatalf("second decode diverged:\n codec: %+v\n  json: %+v", again, std)
		}
	})
}

// FuzzWQMessageDecode feeds arbitrary bytes to the decoder and requires
// exact agreement with json.Unmarshal: same accept/reject verdict, and
// identical Message values on accept.
func FuzzWQMessageDecode(f *testing.F) {
	f.Add([]byte(`{"type":"task","task_id":1,"alloc":[1,2,3,4]}`))
	f.Add([]byte(`{"TYPE":"x","capacity":[1],"capacity":null}`))
	f.Add([]byte(`{"exceeded":["a",null],"unknown":[{"k":[true,false,null]}]}`))
	f.Add([]byte(`{"status":"\ud83d\ude00\ud800\u2028"}`))
	f.Add([]byte(` null `))
	f.Add([]byte(`{"task_id":1e3}`))
	f.Add([]byte("{\"category\":\"\xc3\xa9\xff\"}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var dec messageDecoder
		var mine, std Message
		merr := dec.decode(data, &mine)
		serr := json.Unmarshal(data, &std)
		if (merr == nil) != (serr == nil) {
			t.Fatalf("verdict mismatch on %q: codec=%v json=%v", data, merr, serr)
		}
		if merr != nil {
			return
		}
		if !reflect.DeepEqual(mine, std) {
			t.Fatalf("decode mismatch on %q:\n codec: %+v\n  json: %+v", data, mine, std)
		}
	})
}
