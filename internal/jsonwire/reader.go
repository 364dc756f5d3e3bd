package jsonwire

import (
	"bytes"
	"io"
)

// Reader reads newline-delimited frame lines from a connection into a
// reused, grow-on-demand buffer: a frame larger than the current buffer
// doubles it rather than killing the connection (unlike a default
// bufio.Scanner, whose 64 KiB token cap turns a large frame into an opaque
// error). Its Buffered method lets a server flush coalesced replies exactly
// when it is about to block for more input.
type Reader struct {
	r       io.Reader
	buf     []byte
	start   int // unconsumed window start
	end     int // unconsumed window end
	scanned int // bytes of the window already searched for '\n'
}

// NewReader wraps r with a 4 KiB initial buffer.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r, buf: make([]byte, 4096)}
}

// Next returns the next non-blank line without its newline. Whitespace-only
// lines are skipped (a stream decoder would treat newlines as inter-frame
// whitespace); a final unterminated line at EOF is returned as a frame. The
// returned slice aliases the reader's buffer and is valid only until the
// next call.
func (fr *Reader) Next() ([]byte, error) {
	for {
		window := fr.buf[fr.start:fr.end]
		if i := bytes.IndexByte(window[fr.scanned:], '\n'); i >= 0 {
			line := window[:fr.scanned+i]
			fr.start += fr.scanned + i + 1
			fr.scanned = 0
			if isBlank(line) {
				continue
			}
			return line, nil
		}
		fr.scanned = len(window)
		if err := fr.fill(); err != nil {
			if err == io.EOF && fr.end > fr.start && !isBlank(fr.buf[fr.start:fr.end]) {
				line := fr.buf[fr.start:fr.end]
				fr.start, fr.scanned = fr.end, 0
				return line, nil
			}
			return nil, err
		}
	}
}

// Buffered reports whether a complete frame line is already in memory, i.e.
// whether Next can return without touching the connection. Next skips blank
// lines, so a buffered blank line is not a frame: Buffered consumes it —
// otherwise a caller that defers its flush while Buffered is true would call
// Next, which skips the blank and blocks on the connection with the flush
// still owed.
func (fr *Reader) Buffered() bool {
	for {
		window := fr.buf[fr.start:fr.end]
		i := bytes.IndexByte(window[fr.scanned:], '\n')
		if i < 0 {
			fr.scanned = len(window)
			return false
		}
		if !isBlank(window[:fr.scanned+i]) {
			fr.scanned += i
			return true
		}
		fr.start += fr.scanned + i + 1
		fr.scanned = 0
	}
}

// fill compacts the window to the front of the buffer, growing it when a
// single frame exceeds the current size, and reads more bytes.
func (fr *Reader) fill() error {
	if fr.start > 0 {
		copy(fr.buf, fr.buf[fr.start:fr.end])
		fr.end -= fr.start
		fr.start = 0
	}
	if fr.end == len(fr.buf) {
		grown := make([]byte, 2*len(fr.buf))
		copy(grown, fr.buf[:fr.end])
		fr.buf = grown
	}
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

func isBlank(line []byte) bool {
	for _, c := range line {
		if c != ' ' && c != '\t' && c != '\r' {
			return false
		}
	}
	return true
}
