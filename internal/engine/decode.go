package engine

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"wirelesshart/internal/spec"
)

// decodeResult parses a Result from its JSON encoding without
// reflection: the inverse of jsonWriter, which also reads json.Marshal's
// compact form of the same value. Members must come in struct order, with
// "delay" and "overallDelay" present or left out, and each slice as null,
// [] or a filled array; any JSON whitespace may sit between two tokens.
// Numbers follow the JSON grammar (integers only in int fields) and
// strings unescape as encoding/json unescapes them, invalid UTF-8 included.
// Anything else is an error. A body it accepts, json.Unmarshal accepts too,
// into a deeply equal Result with bit-identical floats.
func decodeResult(data []byte) (*Result, error) {
	r := newJSONReader(data)
	defer r.recycle()
	res := &Result{}
	r.expect('{')
	r.name("key")
	res.Key = r.str()
	r.field("fup")
	res.Fup = r.int()
	r.field("is")
	res.Is = r.int()
	r.field("schedule")
	res.Schedule = r.str()
	r.field("paths")
	res.Paths = readArray(r, &r.paths, r.path)
	r.field("overallMeanDelayMS")
	res.OverallMeanDelayMS = r.float()
	if r.optField("overallDelay") {
		res.OverallDelay = readArray(r, &r.points, r.point)
	}
	r.field("utilization")
	res.Utilization = r.float()
	r.expect('}')
	if err := r.end(); err != nil {
		return nil, err
	}
	return res, nil
}

// jsonReader is the engine's cursor over one JSON body: decodeResult's
// and the request reader's (request.go). The first error sticks: every
// later read fails at once, so a sequence of reads needs one check at its
// end. Each slice is read into a scratch buffer of its element type and
// copied out at its exact length; no element type nests inside itself,
// so one buffer per type serves the whole body.
type jsonReader struct {
	b   []byte
	i   int
	err error

	strs   []string
	ints   []int
	floats []float64
	points []DelayPoint
	paths  []PathResult

	rows  [][]float64
	nodes []spec.Node
	links []spec.Link
	slots []spec.Transmission
	specs []*spec.Spec
	cands []predictCandidate

	// slab holds the values floatPtr points into, one body's at most.
	slab     []float64
	interned [256]string
}

// jsonReaders recycles readers, so a warm reader's scratch buffers have
// grown to a body's longest slices and a decode only allocates its result.
var jsonReaders = sync.Pool{New: func() any { return new(jsonReader) }}

// newJSONReader returns a pooled reader at the start of data.
func newJSONReader(data []byte) *jsonReader {
	r := jsonReaders.Get().(*jsonReader)
	r.b, r.i, r.err = data, 0, nil
	return r
}

// recycle drops what r holds of the last body, so a pooled reader keeps
// no decoded value alive but its interned strings, and puts r back in
// the pool.
func (r *jsonReader) recycle() {
	clear(r.strs[:cap(r.strs)])
	clear(r.paths[:cap(r.paths)])
	clear(r.rows[:cap(r.rows)])
	clear(r.nodes[:cap(r.nodes)])
	clear(r.links[:cap(r.links)])
	clear(r.slots[:cap(r.slots)])
	clear(r.specs[:cap(r.specs)])
	clear(r.cands[:cap(r.cands)])
	r.b, r.err, r.slab = nil, nil, nil
	jsonReaders.Put(r)
}

// end reads the whitespace after the body's one value and returns the
// first error of the read: data after the value is one.
func (r *jsonReader) end() error {
	r.ws()
	if r.err == nil && r.i < len(r.b) {
		r.fail("data after the value")
	}
	return r.err
}

func (r *jsonReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("offset %d: %s", r.i, what)
	}
}

// ws skips JSON whitespace.
func (r *jsonReader) ws() {
	i := r.i
	for i < len(r.b) {
		if c := r.b[i]; c > ' ' || (c != ' ' && c != '\n' && c != '\t' && c != '\r') {
			break
		}
		i++
	}
	r.i = i
}

// peek skips whitespace and reports whether the next byte is c.
func (r *jsonReader) peek(c byte) bool {
	r.ws()
	return r.err == nil && r.i < len(r.b) && r.b[r.i] == c
}

// expect reads the byte c after any whitespace.
func (r *jsonReader) expect(c byte) {
	if !r.peek(c) {
		r.fail("want " + strconv.QuoteRune(rune(c)))
		return
	}
	r.i++
}

// name reads the member name s and its colon.
func (r *jsonReader) name(s string) {
	if !r.nameIs(s) {
		r.fail("want member " + strconv.Quote(s))
		return
	}
	r.expect(':')
}

// nameIs reports whether the quoted name s comes next, and reads it if so.
func (r *jsonReader) nameIs(s string) bool {
	if !r.peek('"') {
		return false
	}
	end := r.i + 1 + len(s)
	if end >= len(r.b) || string(r.b[r.i+1:end]) != s || r.b[end] != '"' {
		return false
	}
	r.i = end + 1
	return true
}

// field reads the comma before the member s, then its name.
func (r *jsonReader) field(s string) {
	r.expect(',')
	r.name(s)
}

// optField reads the comma and name of the member s, which may be left
// out, and reports whether it was there. When it is not, nothing is read.
func (r *jsonReader) optField(s string) bool {
	at := r.i
	if r.peek(',') {
		r.i++
		if r.nameIs(s) {
			r.expect(':')
			return true
		}
	}
	r.i = at
	return false
}

// member reads the name and colon of an object's next member, after the
// comma before it, and returns the name's index in names; at the object's
// closing brace it reads the brace and returns -1. The members may come
// in any order, each at most once: seen holds one bit per name and starts
// at 0 for each object, so it tells the first member, which no comma
// precedes, from the rest. A name that is not in names byte for byte (an
// escaped one among them) or that repeats is an error, and so is -1.
func (r *jsonReader) member(names []string, seen *uint64) int {
	if r.peek('}') {
		r.i++
		return -1
	}
	if *seen != 0 {
		r.expect(',')
	}
	if !r.peek('"') {
		r.fail("want a member name")
		return -1
	}
	rest := r.b[r.i+1:]
	for k, s := range names {
		if len(rest) <= len(s) || rest[len(s)] != '"' || string(rest[:len(s)]) != s {
			continue
		}
		if *seen&(1<<k) != 0 {
			r.fail("repeated member " + strconv.Quote(s))
			return -1
		}
		*seen |= 1 << k
		r.i += len(s) + 2
		r.expect(':')
		if r.err != nil {
			return -1
		}
		return k
	}
	r.fail("unknown member")
	return -1
}

// object reads the '{' that opens an object and reports true, or reads
// null, which leaves the value zero as encoding/json does, and reports
// false. On an error it reports false.
func (r *jsonReader) object() bool {
	if r.null() {
		return false
	}
	r.expect('{')
	return r.err == nil
}

// null reads the literal null if it comes next and reports whether it did.
func (r *jsonReader) null() bool {
	if r.peek('n') && len(r.b)-r.i >= 4 && string(r.b[r.i:r.i+4]) == "null" {
		r.i += 4
		return true
	}
	return false
}

// readArray reads null as a nil slice, or an array whose elements elem
// reads, collected in *scratch and returned in a slice of exact length.
func readArray[T any](r *jsonReader, scratch *[]T, elem func() T) []T {
	if r.null() {
		return nil
	}
	r.expect('[')
	buf := (*scratch)[:0]
	if r.peek(']') {
		r.i++
	} else {
		for r.err == nil {
			buf = append(buf, elem())
			if !r.peek(',') {
				r.expect(']')
				break
			}
			r.i++
		}
	}
	*scratch = buf
	if r.err != nil {
		return nil
	}
	return append(make([]T, 0, len(buf)), buf...)
}

func (r *jsonReader) path() PathResult {
	var p PathResult
	r.expect('{')
	r.name("source")
	p.Source = r.str()
	r.field("route")
	p.Route = readArray(r, &r.strs, r.str)
	r.field("hops")
	p.Hops = r.int()
	r.field("slots")
	p.Slots = readArray(r, &r.ints, r.int)
	r.field("reachability")
	p.Reachability = r.float()
	r.field("cycleProbs")
	p.CycleProbs = readArray(r, &r.floats, r.float)
	r.field("expectedDelayMS")
	p.ExpectedDelayMS = r.float()
	if r.optField("delay") {
		p.Delay = readArray(r, &r.points, r.point)
	}
	r.field("utilization")
	p.Utilization = r.float()
	r.expect('}')
	return p
}

func (r *jsonReader) point() DelayPoint {
	var pt DelayPoint
	r.expect('{')
	r.name("ms")
	pt.MS = r.float()
	r.field("prob")
	pt.Prob = r.float()
	r.expect('}')
	return pt
}

// number reads a number as the JSON grammar writes it and returns its
// text and whether it has neither a fraction nor an exponent.
func (r *jsonReader) number() (text []byte, integer bool) {
	r.ws()
	if r.err != nil {
		return nil, false
	}
	b, start := r.b, r.i
	j := start
	digits := func() bool {
		from := j
		for j < len(b) && '0' <= b[j] && b[j] <= '9' {
			j++
		}
		return j > from
	}
	if j < len(b) && b[j] == '-' {
		j++
	}
	switch {
	case j < len(b) && b[j] == '0':
		j++
	case !digits():
		r.fail("want a number")
		return nil, false
	}
	integer = true
	if j < len(b) && b[j] == '.' {
		j++
		if !digits() {
			r.fail("want a digit after the decimal point")
			return nil, false
		}
		integer = false
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		j++
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		if !digits() {
			r.fail("want a digit in the exponent")
			return nil, false
		}
		integer = false
	}
	r.i = j
	return b[start:j], integer
}

func (r *jsonReader) int() int {
	text, integer := r.number()
	if r.err != nil {
		return 0
	}
	if !integer {
		r.fail("want an integer")
		return 0
	}
	n, err := strconv.ParseInt(string(text), 10, 64)
	if err != nil {
		r.fail(err.Error())
		return 0
	}
	return int(n)
}

func (r *jsonReader) float() float64 {
	text, _ := r.number()
	if r.err != nil {
		return 0
	}
	f, err := strconv.ParseFloat(string(text), 64)
	if err != nil {
		r.fail(err.Error())
		return 0
	}
	return f
}

// str reads a string. One without escapes, control bytes or invalid
// UTF-8 is copied as it stands; any other goes through unquote.
func (r *jsonReader) str() string {
	if !r.peek('"') {
		r.fail("want a string")
		return ""
	}
	start := r.i + 1
	for j := start; j < len(r.b); {
		c := r.b[j]
		switch {
		case c == '"':
			r.i = j + 1
			return r.intern(r.b[start:j])
		case c == '\\' || c < ' ':
			return r.unquote(start)
		case c < utf8.RuneSelf:
			j++
		default:
			rn, size := utf8.DecodeRune(r.b[j:])
			if rn == utf8.RuneError && size == 1 {
				return r.unquote(start)
			}
			j += size
		}
	}
	r.i = len(r.b)
	r.fail("unterminated string")
	return ""
}

// maxInterned bounds the strings intern shares.
const maxInterned = 32

// intern returns b as a string, and the string of an earlier b with the
// same bytes if it is still in r's table: a body names each node many
// times (in its nodes, links and slots, in every scenario of a batch and
// every route of a result), and names are most of its strings. The table
// is a fixed array indexed by a hash of the bytes, so it holds at most
// len(r.interned) short strings, each until an other string takes its
// place.
func (r *jsonReader) intern(b []byte) string {
	if len(b) > maxInterned {
		return string(b)
	}
	h := uint32(2166136261) // FNV-1a
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	slot := &r.interned[h%uint32(len(r.interned))]
	if *slot != string(b) {
		*slot = string(b)
	}
	return *slot
}

// unquote reads the rest of a string whose contents begin at start, as
// encoding/json does: escapes decoded, a \u escape of a lone or misplaced
// surrogate and each byte of invalid UTF-8 replaced by U+FFFD, and a raw
// control byte an error.
func (r *jsonReader) unquote(start int) string {
	b := r.b
	// The string's text up to the next quote bounds most decodings.
	out := make([]byte, 0, bytes.IndexByte(b[start:], '"')+1)
	for j := start; j < len(b); {
		c := b[j]
		switch {
		case c == '"':
			r.i = j + 1
			return string(out)
		case c < ' ':
			r.i = j
			r.fail("control byte in string")
			return ""
		case c == '\\':
			if j+1 >= len(b) {
				j = len(b)
				continue
			}
			switch e := b[j+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				rn := hex4(b[j+2:])
				if rn < 0 {
					r.i = j
					r.fail(`want four hex digits after \u`)
					return ""
				}
				j += 6
				if utf16.IsSurrogate(rn) {
					if len(b)-j >= 6 && b[j] == '\\' && b[j+1] == 'u' {
						if pair := utf16.DecodeRune(rn, hex4(b[j+2:])); pair != utf8.RuneError {
							out = utf8.AppendRune(out, pair)
							j += 6
							continue
						}
					}
					rn = utf8.RuneError
				}
				out = utf8.AppendRune(out, rn)
				continue
			default:
				r.i = j
				r.fail("invalid escape in string")
				return ""
			}
			j += 2
		case c < utf8.RuneSelf:
			out = append(out, c)
			j++
		default:
			rn, size := utf8.DecodeRune(b[j:])
			out = utf8.AppendRune(out, rn)
			j += size
		}
	}
	r.i = len(b)
	r.fail("unterminated string")
	return ""
}

// hex4 returns the value of the four hex digits b starts with, or -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var v rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		v = v<<4 | rune(c)
	}
	return v
}
