package engine

import (
	"encoding/json"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"
)

// jsonWriter appends the API's response encoding of the engine's fixed
// result schema straight into one reused byte slice: exactly the bytes
// encodeIndented writes for the same value, without reflection and without
// re-indenting a compact encoding. Fields are written in struct order, nil
// slices as null and empty ones as [], and an empty delay list is left out
// as omitempty does. An object or array written at depth d has its closing
// bracket indented d levels and its members d+1 levels.
type jsonWriter struct {
	b   []byte
	err error // the first float JSON cannot encode; b is then discarded
}

// jsonWriters recycles writers. A body is built in a reused buffer and
// copied out once at its exact length, so a cached encoding holds no
// slack capacity and a warm writer never grows its buffer.
var jsonWriters = sync.Pool{New: func() any { return new(jsonWriter) }}

// newJSONWriter returns a writer that has opened the top-level object.
func newJSONWriter() *jsonWriter {
	w := jsonWriters.Get().(*jsonWriter)
	w.b, w.err = append(w.b[:0], '{'), nil
	return w
}

// done ends the top-level object, returns the encoding (trailing newline
// included) in a slice of its own and recycles w.
func (w *jsonWriter) done() ([]byte, error) {
	defer jsonWriters.Put(w)
	if w.err != nil {
		return nil, w.err
	}
	w.b = append(w.b, "\n}\n"...)
	return append([]byte(nil), w.b...), nil
}

// field starts the member name of the object whose members sit at depth.
// A member that directly follows the object's '{' takes no comma.
func (w *jsonWriter) field(depth int, name string) {
	if w.b[len(w.b)-1] != '{' {
		w.b = append(w.b, ',')
	}
	w.newline(depth)
	w.b = append(w.b, '"')
	w.b = append(w.b, name...)
	w.b = append(w.b, `": `...)
}

// lineBreaks holds a newline and the indentation of every depth the
// schema reaches (a delay point's members sit at depth 5).
const lineBreaks = "\n            "

func (w *jsonWriter) newline(depth int) { w.b = append(w.b, lineBreaks[:1+2*depth]...) }

func (w *jsonWriter) int(n int) { w.b = strconv.AppendInt(w.b, int64(n), 10) }

// float formats f as encoding/json does; NaN and ±Inf fail with the
// encoder's own error.
func (w *jsonWriter) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if w.err == nil {
			w.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	w.b = appendJSONFloat(w.b, f)
}

func (w *jsonWriter) quote(s string) { w.b = appendJSONString(w.b, s) }

// maxExactInt is 2^53: every integer of smaller magnitude is a float64.
const maxExactInt = 1 << 53

// appendJSONFloat appends the finite f as encoding/json writes it: the
// shortest representation, in exponent form outside [1e-6, 1e21) with a
// one-digit negative exponent written e-7 rather than e-07. A whole number
// below 2^53 in magnitude, as every delay in milliseconds is, is written
// by the integer formatter, which gives the same digits; -0 is not, as
// json writes its sign.
func appendJSONFloat(b []byte, f float64) []byte {
	if _, frac := math.Modf(f); frac == 0 && math.Abs(f) < maxExactInt && !(f == 0 && math.Signbit(f)) {
		return strconv.AppendInt(b, int64(f), 10)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// jsonSafe marks the ASCII bytes appendJSONString copies unescaped.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := byte(0x20); c < utf8.RuneSelf; c++ {
		safe[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return safe
}()

// appendJSONString appends s quoted as encoding/json writes it: with the
// HTML characters <>& escaped, control bytes as \b, \f, \n, \r, \t or
// \u00XX, U+2028 and U+2029 escaped, and each byte of invalid UTF-8 as
// \ufffd.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// array writes xs at depth, one element a line, each written by elem.
func array[T any](w *jsonWriter, depth int, xs []T, elem func(T)) {
	switch {
	case xs == nil:
		w.b = append(w.b, "null"...)
	case len(xs) == 0:
		w.b = append(w.b, "[]"...)
	default:
		w.b = append(w.b, '[')
		for i, x := range xs {
			if i > 0 {
				w.b = append(w.b, ',')
			}
			w.newline(depth + 1)
			elem(x)
		}
		w.newline(depth)
		w.b = append(w.b, ']')
	}
}

// delay writes a delay distribution's member at depth, or nothing when it
// is empty (omitempty).
func (w *jsonWriter) delay(depth int, name string, pts []DelayPoint) {
	if len(pts) == 0 {
		return
	}
	w.field(depth, name)
	array(w, depth, pts, func(pt DelayPoint) {
		w.b = append(w.b, '{')
		w.field(depth+2, "ms")
		w.float(pt.MS)
		w.field(depth+2, "prob")
		w.float(pt.Prob)
		w.newline(depth + 1)
		w.b = append(w.b, '}')
	})
}

// resultPathDepth is the depth at which a Result writes its paths, the
// depth of a PathResult's stored members.
const resultPathDepth = 2

// path writes p at depth. Its members from "hops" on come from p.tail when
// one is stored for that depth.
func (w *jsonWriter) path(depth int, p *PathResult) {
	d := depth + 1
	w.b = append(w.b, '{')
	w.field(d, "source")
	w.quote(p.Source)
	w.field(d, "route")
	array(w, d, p.Route, w.quote)
	if depth == resultPathDepth && p.tail != nil {
		w.b = append(w.b, p.tail...)
		return
	}
	w.pathTail(depth, p)
}

// pathTail writes p's members from "hops" to the closing brace of an
// object at depth whose "route" member is already written.
func (w *jsonWriter) pathTail(depth int, p *PathResult) {
	d := depth + 1
	w.field(d, "hops")
	w.int(p.Hops)
	w.field(d, "slots")
	array(w, d, p.Slots, w.int)
	w.field(d, "reachability")
	w.float(p.Reachability)
	w.field(d, "cycleProbs")
	array(w, d, p.CycleProbs, w.float)
	w.field(d, "expectedDelayMS")
	w.float(p.ExpectedDelayMS)
	w.delay(d, "delay", p.Delay)
	w.field(d, "utilization")
	w.float(p.Utilization)
	w.newline(depth)
	w.b = append(w.b, '}')
}

// encodeTail returns p's members from "hops" on as a Result writes them,
// or nil when a float cannot be encoded, so encoding the Result still
// fails with the encoder's error.
func encodeTail(p *PathResult) []byte {
	w := jsonWriters.Get().(*jsonWriter)
	defer jsonWriters.Put(w)
	// The ']' stands for the closing bracket of the route, which the
	// first member follows with a comma.
	w.b, w.err = append(w.b[:0], ']'), nil
	w.pathTail(resultPathDepth, p)
	if w.err != nil {
		return nil
	}
	return append([]byte(nil), w.b[1:]...)
}

// encode returns r's response encoding; (*Result).encoding stores it.
func (r *Result) encode() ([]byte, error) {
	w := newJSONWriter()
	w.field(1, "key")
	w.quote(r.Key)
	w.field(1, "fup")
	w.int(r.Fup)
	w.field(1, "is")
	w.int(r.Is)
	w.field(1, "schedule")
	w.quote(r.Schedule)
	w.field(1, "paths")
	array(w, 1, r.Paths, func(p PathResult) { w.path(resultPathDepth, &p) })
	w.field(1, "overallMeanDelayMS")
	w.float(r.OverallMeanDelayMS)
	w.delay(1, "overallDelay", r.OverallDelay)
	w.field(1, "utilization")
	w.float(r.Utilization)
	return w.done()
}

// encode returns /v1/evaluate's response body: the path one level
// shallower than inside a Result.
func (v *evaluateResponse) encode() ([]byte, error) {
	w := newJSONWriter()
	w.field(1, "key")
	w.quote(v.Key)
	w.field(1, "fup")
	w.int(v.Fup)
	w.field(1, "schedule")
	w.quote(v.Schedule)
	w.field(1, "path")
	w.path(1, &v.Path)
	return w.done()
}
