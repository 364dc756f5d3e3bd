package jsonwire

import (
	"io"
	"strings"
	"testing"
)

// chunkReader hands out one scripted chunk per Read and counts the calls, so
// a test can tell exactly when the Reader touched its connection.
type chunkReader struct {
	chunks []string
	reads  int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	c.reads++
	if len(c.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.chunks[0])
	if n < len(c.chunks[0]) {
		c.chunks[0] = c.chunks[0][n:]
	} else {
		c.chunks = c.chunks[1:]
	}
	return n, nil
}

// drain reads frames until EOF, checking the Buffered contract on the way:
// whenever Buffered says yes, the Next that follows returns a frame without
// a Read.
func drain(t *testing.T, src *chunkReader) []string {
	t.Helper()
	fr := NewReader(src)
	var got []string
	for {
		before := src.reads
		buffered := fr.Buffered()
		if src.reads != before {
			t.Fatalf("Buffered read from the connection")
		}
		line, err := fr.Next()
		if buffered && (err != nil || src.reads != before) {
			t.Fatalf("Buffered was true, but Next returned err=%v after %d reads", err, src.reads-before)
		}
		if err == io.EOF {
			return got
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		got = append(got, string(line))
	}
}

func TestReaderFraming(t *testing.T) {
	big := `{"pad":"` + strings.Repeat("x", 3*4096) + `"}`
	cases := []struct {
		name   string
		chunks []string
		want   []string
	}{
		{"split frame", []string{`{"a":`, `1}` + "\n"}, []string{`{"a":1}`}},
		{"several frames per read", []string{"{1}\n{2}\n{3}\n"}, []string{"{1}", "{2}", "{3}"}},
		{"blank and CR-only lines", []string{"\n\r\n{1}\r\n \t\n\n{2}\n\r\n"}, []string{"{1}\r", "{2}"}},
		{"frame larger than the window", []string{big + "\n{1}\n"}, []string{big, "{1}"}},
		{"unterminated final line", []string{"{1}\n{2}"}, []string{"{1}", "{2}"}},
		{"unterminated blank tail", []string{"{1}\n \r"}, []string{"{1}"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := drain(t, &chunkReader{chunks: tc.chunks})
			if len(got) != len(tc.want) {
				t.Fatalf("got %d frames %q, want %d", len(got), got, len(tc.want))
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("frame %d = %q, want %q", i, got[i], tc.want[i])
				}
			}
		})
	}
}

// TestBufferedSkipsBlankLines pins the bug the wq reader and serve.serveConn
// both depended on not having: a blank line after the last frame of a read is
// not "a frame in memory", because the Next that follows would skip it and
// block on the connection.
func TestBufferedSkipsBlankLines(t *testing.T) {
	src := &chunkReader{chunks: []string{"{1}\n\n\r\n", "{2}\n"}}
	fr := NewReader(src)
	if fr.Buffered() {
		t.Fatal("Buffered before any read")
	}
	if line, err := fr.Next(); err != nil || string(line) != "{1}" {
		t.Fatalf("Next = %q, %v", line, err)
	}
	if fr.Buffered() {
		t.Fatal("Buffered is true with only blank lines in memory")
	}
	if src.reads != 1 {
		t.Fatalf("reads = %d, want 1", src.reads)
	}
	if line, err := fr.Next(); err != nil || string(line) != "{2}" {
		t.Fatalf("Next = %q, %v", line, err)
	}
	// A partial frame is not buffered either, and asking twice is harmless.
	src.chunks = []string{"{3}\n{\"a\"", ":4}\n"}
	if line, err := fr.Next(); err != nil || string(line) != "{3}" {
		t.Fatalf("Next = %q, %v", line, err)
	}
	if fr.Buffered() || fr.Buffered() {
		t.Fatal("Buffered is true for a partial frame")
	}
	if line, err := fr.Next(); err != nil || string(line) != `{"a":4}` {
		t.Fatalf("Next = %q, %v", line, err)
	}
}
