package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
)

// checkDecode decodes body with decodeResult and with json.Unmarshal, the
// oracle. When the reader accepts the body, json.Unmarshal must accept it
// too, into a deeply equal Result whose floats are equal bit for bit. It
// reports whether the reader accepted.
func checkDecode(t testing.TB, name string, body []byte) bool {
	t.Helper()
	got, err := decodeResult(body)
	if err != nil {
		return false
	}
	want := &Result{}
	if err := json.Unmarshal(body, want); err != nil {
		t.Errorf("%s: the reader accepts a body json.Unmarshal rejects (%v):\n%q", name, err, body)
		return true
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: reader %+v\njson.Unmarshal %+v", name, got, want)
		return true
	}
	gf, wf := floatFields(reflect.ValueOf(got)), floatFields(reflect.ValueOf(want))
	for i := range gf {
		if g, w := math.Float64bits(gf[i].Float()), math.Float64bits(wf[i].Float()); g != w {
			t.Errorf("%s: float %d has bits %#x, json.Unmarshal %#x", name, i, g, w)
		}
	}
	return true
}

// resultBodies returns r's response encoding and its compact json.Marshal
// form: the bodies an owner sends and a snapshot entry holds.
func resultBodies(t testing.TB, r *Result) (indented, compact []byte) {
	t.Helper()
	indented, err := r.encoding()
	if err != nil {
		t.Fatal(err)
	}
	compact, err = json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return indented, compact
}

// mustDecode requires the reader to accept both encodings of r and to
// agree with json.Unmarshal on each. It returns the indented encoding.
func mustDecode(t *testing.T, name string, r *Result) []byte {
	t.Helper()
	indented, compact := resultBodies(t, r)
	for form, body := range map[string][]byte{"indented": indented, "compact": compact} {
		if !checkDecode(t, name+" "+form, body) {
			_, err := decodeResult(body)
			t.Errorf("%s %s: the reader rejects an encoding of a Result: %v", name, form, err)
		}
	}
	return indented
}

// TestDecodeWriterCases: the reader reads both encodings of every
// writerCases entry. TestWriterCasesCoverSchema makes some case set every
// exported field, so a member the reader does not know fails here.
func TestDecodeWriterCases(t *testing.T) {
	for name, r := range writerCases() {
		mustDecode(t, name, r)
	}
}

// TestDecodeSolvedNetworks: the reader reads both encodings of TypicalSpec's
// result and of 64 generated networks' results, and a result it read from
// an owner's body encodes to that body again.
func TestDecodeSolvedNetworks(t *testing.T) {
	for _, r := range generatedResults(t, 64) {
		body := mustDecode(t, r.Key[:12], r)
		res, err := decodeResult(body)
		if err != nil {
			t.Fatal(err)
		}
		if again, err := res.encode(); err != nil || !bytes.Equal(again, body) {
			t.Errorf("%s: decoded result re-encodes differently (%v)", r.Key[:12], err)
		}
	}
}

// TestDecodeConcurrently: goroutines decoding at once, through the pooled
// readers, each read their own body.
func TestDecodeConcurrently(t *testing.T) {
	var bodies [][]byte
	for _, r := range generatedResults(t, 8) {
		indented, compact := resultBodies(t, r)
		bodies = append(bodies, indented, compact)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4*len(bodies); i++ {
				if !checkDecode(t, "concurrent", bodies[(g+i)%len(bodies)]) {
					t.Error("the reader rejects an encoding of a Result")
				}
			}
		}(g)
	}
	wg.Wait()
}

// decodeAccepts are bodies in neither writer's layout that are still
// inside the reader's language: other whitespace, escapes, number forms
// and slice shapes.
var decodeAccepts = map[string]string{
	"no whitespace":     `{"key":"k","fup":1,"is":2,"schedule":"s","paths":null,"overallMeanDelayMS":0,"utilization":0}`,
	"every whitespace":  " \t\r\n{ \"key\" :\t\"k\" ,\r\n\"fup\" : 1 , \"is\" : 2 , \"schedule\" : \"s\" , \"paths\" : [ ] , \"overallMeanDelayMS\" : 0 , \"overallDelay\" : [ { \"ms\" : 1 , \"prob\" : 0.5 } ] , \"utilization\" : 0 } \n\t",
	"empty delays":      `{"key":"","fup":0,"is":0,"schedule":"","paths":[{"source":"n1","route":[],"hops":0,"slots":[],"reachability":0,"cycleProbs":[],"expectedDelayMS":0,"delay":[],"utilization":0}],"overallMeanDelayMS":0,"overallDelay":[],"utilization":0}`,
	"null delays":       `{"key":"","fup":0,"is":0,"schedule":"","paths":[{"source":"n1","route":null,"hops":0,"slots":null,"reachability":0,"cycleProbs":null,"expectedDelayMS":0,"delay":null,"utilization":0}],"overallMeanDelayMS":0,"overallDelay":null,"utilization":0}`,
	"number forms":      `{"key":"k","fup":-0,"is":9223372036854775807,"schedule":"s","paths":[{"source":"a","route":["b"],"hops":-9223372036854775808,"slots":[0,-1],"reachability":1E2,"cycleProbs":[1e-400,0.1e+1,-0.0,4.9406564584124654e-324,123456789012345678901234567890],"expectedDelayMS":1.7976931348623157e308,"utilization":-5e-1}],"overallMeanDelayMS":2,"utilization":0.30000000000000004}`,
	"escapes":           `{"key":"\"\\\/\b\f\n\r\t","fup":0,"is":0,"schedule":"\u0041\u00e9 \ud834\udd1e\uD834\uDD1E\u2028","paths":null,"overallMeanDelayMS":0,"utilization":0}`,
	"bad surrogates":    `{"key":"\ud800","fup":0,"is":0,"schedule":"\udc00\ud800\ud800\udc00\ud800x\ud800\u0041\ud800\ud800","paths":null,"overallMeanDelayMS":0,"utilization":0}`,
	"invalid utf-8":     "{\"key\":\"\xff\xfe\",\"fup\":0,\"is\":0,\"schedule\":\"a\xed\xa0\x80b\xc3\",\"paths\":null,\"overallMeanDelayMS\":0,\"utilization\":0}",
	"utf-8 with escape": "{\"key\":\"\xc3\xa9\\n\xe2\x80\xa8\xef\xbf\xbd\",\"fup\":0,\"is\":0,\"schedule\":\"\",\"paths\":null,\"overallMeanDelayMS\":0,\"utilization\":0}",
}

func TestDecodeAcceptsJSONVariants(t *testing.T) {
	for name, body := range decodeAccepts {
		if !checkDecode(t, name, []byte(body)) {
			_, err := decodeResult([]byte(body))
			t.Errorf("%s: rejected: %v", name, err)
		}
	}
}

// decodeRejects derives bodies the reader refuses from the full writer
// case in compact form: each replaces one substring (a member, a number, a
// string) or appends to the body.
func decodeRejects(t testing.TB) map[string][]byte {
	t.Helper()
	full, err := json.Marshal(writerCases()["full"])
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	edit := func(name, old, new string) {
		if !bytes.Contains(full, []byte(old)) {
			t.Fatalf("reject %s: %q is not in the body", name, old)
		}
		out[name] = bytes.Replace(full, []byte(old), []byte(new), 1)
	}
	edit("reordered members", `"fup":12,"is":4`, `"is":4,"fup":12`)
	edit("unknown member", `"fup":12,`, `"fup":12,"extra":1,`)
	edit("missing member", `"is":4,`, ``)
	edit("duplicate member", `"fup":12,`, `"fup":12,"fup":12,`)
	edit("member name case", `"fup"`, `"FUP"`)
	edit("escaped member name", `"fup"`, `"\u0066up"`)
	edit("plus sign", `"fup":12`, `"fup":+12`)
	edit("leading zero", `"fup":12`, `"fup":012`)
	edit("leading zero float", `"utilization":0.2852`, `"utilization":00.2852`)
	edit("hex float", `"utilization":0.2852`, `"utilization":0x1p-2`)
	edit("NaN", `"utilization":0.2852`, `"utilization":NaN`)
	edit("inf", `"utilization":0.2852`, `"utilization":inf`)
	edit("bare point", `"utilization":0.2852`, `"utilization":.2852`)
	edit("trailing point", `"utilization":0.2852`, `"utilization":1.`)
	edit("empty exponent", `"utilization":0.2852`, `"utilization":1e`)
	edit("float overflow", `"utilization":0.2852`, `"utilization":1e309`)
	edit("fractional int", `"fup":12`, `"fup":12.0`)
	edit("exponent int", `"fup":12`, `"fup":1e1`)
	edit("int overflow", `"fup":12`, `"fup":9223372036854775808`)
	edit("quoted number", `"fup":12`, `"fup":"12"`)
	edit("null int", `"fup":12`, `"fup":null`)
	edit("null string", `"key":"3f2a"`, `"key":null`)
	edit("null element", `"route":["n1",`, `"route":[null,`)
	edit("raw control byte", `"key":"3f2a"`, "\"key\":\"3f\x01a\"")
	edit("raw newline", `"key":"3f2a"`, "\"key\":\"3f\na\"")
	edit("bad escape", `"key":"3f2a"`, `"key":"3f\x2a"`)
	edit("short unicode escape", `"key":"3f2a"`, `"key":"\u3f2"`)
	edit("trailing comma", `0.0625}`, `0.0625,}`)
	edit("missing comma", `"fup":12,"is"`, `"fup":12 "is"`)
	edit("single quotes", `"key":"3f2a"`, `"key":'3f2a'`)
	edit("object for array", `"slots":[1,4]`, `"slots":{}`)
	out["trailing data"] = append(bytes.Clone(full), []byte(" {}")...)
	out["trailing comma after result"] = append(bytes.Clone(full), ',')
	out["two results"] = append(bytes.Clone(full), full...)
	out["empty"] = nil
	out["only whitespace"] = []byte(" \n")
	out["array"] = []byte("[]")
	out["null"] = []byte("null")
	out["byte order mark"] = append([]byte("\xef\xbb\xbf"), full...)
	for _, n := range []int{1, 2, 10, len(full) / 2, len(full) - 2, len(full) - 1} {
		out[fmt.Sprintf("truncated at %d", n)] = full[:n]
	}
	return out
}

func TestDecodeRejects(t *testing.T) {
	for name, body := range decodeRejects(t) {
		if _, err := decodeResult(body); err == nil {
			t.Errorf("%s: the reader accepts %q", name, body)
		}
	}
}

// FuzzDecodeResult checks the reader's one-way property: whatever it
// accepts, json.Unmarshal accepts into an equal Result.
func FuzzDecodeResult(f *testing.F) {
	for _, r := range writerCases() {
		indented, compact := resultBodies(f, r)
		f.Add(indented)
		f.Add(compact)
	}
	for _, body := range decodeAccepts {
		f.Add([]byte(body))
	}
	for _, body := range decodeRejects(f) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, "fuzz", body)
	})
}

// decodeBodies returns the response encodings of 64 solved generated
// networks (gen seed 1): the bodies an owner sends a forwarding replica.
func decodeBodies(b *testing.B) [][]byte {
	var bodies [][]byte
	for _, r := range generatedResults(b, 64)[1:] {
		body, err := r.encoding()
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	return bodies
}

// BenchmarkResultDecode is the local parse of a forwarded result: each op
// decodes all 64 bodies of decodeBodies.
func BenchmarkResultDecode(b *testing.B) {
	bodies := decodeBodies(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, body := range bodies {
			if _, err := decodeResult(body); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkResultUnmarshal is BenchmarkResultDecode through json.Unmarshal,
// the decode forwarding used before decodeResult.
func BenchmarkResultUnmarshal(b *testing.B) {
	bodies := decodeBodies(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, body := range bodies {
			if err := json.Unmarshal(body, &Result{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
