// Package jsonwire is the shared hand-rolled JSON wire codec for the repo's
// newline-delimited frame protocols (internal/serve, internal/wq). Both
// protocols are ordinary JSON on the wire but must never pay encoding/json's
// reflection cost on a hot path: frames are encoded by appending into a
// reused buffer and decoded by a hand-written scanner into a reused struct.
//
// The package provides the protocol-independent machinery — string/float/
// vector encoding, the scratch-reusing Decoder, and the grow-on-demand
// line Reader — while each protocol keeps its own frame layout (field order,
// omitempty decisions, fold-match tie-breaks) next to its Frame/Message
// type, pinned byte- and value-compatible with encoding/json by per-protocol
// fuzz targets. Compatibility matters: stock encoding/json peers
// interoperate with both protocols unchanged.
//
// Encoding parity covers field order, omitempty behavior, HTML-escaped
// strings (including U+2028/U+2029 and invalid-UTF-8 replacement), and
// encoding/json's float formatting. Decoding parity covers case-folded field
// matching, last-duplicate-wins, null semantics (scalars unchanged,
// slices/pointers set to nil), fixed-array zero-padding with extra elements
// validated and discarded, and the same nesting-depth limit.
package jsonwire

import (
	"errors"
	"math"
	"strconv"
	"unicode/utf8"

	"dynalloc/internal/resources"
)

// maxInternStrings bounds a Decoder's string intern table so a peer
// streaming unique strings cannot grow it without bound; past the cap new
// strings simply allocate.
const maxInternStrings = 4096

// maxNestingDepth mirrors encoding/json's nesting limit so the decoder
// errors on the same pathological inputs (and cannot recurse unboundedly).
const maxNestingDepth = 10000

// ErrNonFiniteFloat mirrors json.Marshal's refusal to encode NaN or ±Inf.
var ErrNonFiniteFloat = errors.New("jsonwire: unsupported value: non-finite float")

// ---------------------------------------------------------------------------
// Encoding

// AppendFloat appends encoding/json's formatting of v: shortest round-trip
// representation, 'f' form for 1e-6 <= |v| < 1e21 and 'e' form otherwise,
// with a single leading zero trimmed from small negative exponents
// ("1e-09" -> "1e-9").
func AppendFloat(dst []byte, v float64) ([]byte, error) {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return dst, ErrNonFiniteFloat
	}
	// Fast path: integral values in the exact-int64 range format as plain
	// digits under shortest-'f' anyway, and AppendInt is much cheaper than
	// the shortest-float search; positive zero, most of every frame's three
	// vectors, is one byte. Negative zero ("-0") stays on the slow path.
	if v == 0 && !math.Signbit(v) {
		return append(dst, '0'), nil
	}
	if v == math.Trunc(v) && v >= -1e15 && v <= 1e15 && v != 0 {
		return strconv.AppendInt(dst, int64(v), 10), nil
	}
	abs := math.Abs(v)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, v, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// AppendVector appends a resource vector as a JSON array of floats.
func AppendVector(dst []byte, v resources.Vector) ([]byte, error) {
	var err error
	dst = append(dst, '[')
	for i, x := range v {
		if i > 0 {
			dst = append(dst, ',')
		}
		if dst, err = AppendFloat(dst, x); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

const hexDigits = "0123456789abcdef"

// htmlSafe[b] reports bytes that pass through unescaped, matching
// encoding/json's htmlSafeSet: printable ASCII minus '"', '\\', '<', '>', '&'.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = true
	}
	t['"'], t['\\'], t['<'], t['>'], t['&'] = false, false, false, false, false
	return
}()

// AppendString replicates encoding/json's HTML-escaping string encoder.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if htmlSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
