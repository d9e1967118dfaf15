package engine

import (
	"encoding/json"
	"math"
	"strconv"
	"sync"
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

// float formats f as encoding/json does: the shortest representation, in
// exponent form outside [1e-6, 1e21) with a one-digit negative exponent
// written e-7 rather than e-07. NaN and ±Inf fail with the encoder's own
// error.
func (w *jsonWriter) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if w.err == nil {
			w.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, f, format, -1, 64)
	if n := len(w.b); format == 'e' && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
		w.b[n-2] = w.b[n-1]
		w.b = w.b[:n-1]
	}
}

// quote copies s between quotes when no byte needs escaping. Anything
// else (quotes, backslashes, the HTML characters <>&, control bytes and
// all non-ASCII) goes through json.Marshal, which keeps the encoder's
// HTML escaping, its \u2028 and \u2029 escapes and its U+FFFD for invalid
// UTF-8 exact.
func (w *jsonWriter) quote(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a Go string always marshals
			w.b = append(w.b, q...)
			return
		}
	}
	w.b = append(w.b, '"')
	w.b = append(w.b, s...)
	w.b = append(w.b, '"')
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

func (w *jsonWriter) path(depth int, p *PathResult) {
	d := depth + 1
	w.b = append(w.b, '{')
	w.field(d, "source")
	w.quote(p.Source)
	w.field(d, "route")
	array(w, d, p.Route, w.quote)
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
	array(w, 1, r.Paths, func(p PathResult) { w.path(2, &p) })
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
