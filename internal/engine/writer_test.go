package engine

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"wirelesshart/internal/gen"
	"wirelesshart/internal/spec"
)

// checkWriter compares r's jsonWriter encoding, and the /v1/evaluate body
// of each of its paths, with encodeIndented: the same bytes, or the same
// error text.
func checkWriter(t *testing.T, name string, r *Result) {
	t.Helper()
	check := func(what string, got []byte, err error, v any) {
		t.Helper()
		want, wantErr := encodeIndented(v)
		switch {
		case wantErr != nil || err != nil:
			if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
				t.Errorf("%s %s: error %v, want %v", name, what, err, wantErr)
			}
		case !bytes.Equal(got, want):
			t.Errorf("%s %s: writer\n%s\nwant\n%s", name, what, got, want)
		}
	}
	got, err := r.encode()
	check("result", got, err, r)
	for _, p := range r.Paths {
		resp := &evaluateResponse{Key: r.Key, Fup: r.Fup, Schedule: r.Schedule, Path: p}
		got, err := resp.encode()
		check("evaluate "+p.Source, got, err, resp)
	}
}

// writerCases covers the schema's shapes: nil and empty slices, the float
// formatting boundaries and names that need escaping.
func writerCases() map[string]*Result {
	pt := func(ms, p float64) DelayPoint { return DelayPoint{MS: ms, Prob: p} }
	full := PathResult{
		Source: "n1", Route: []string{"n1", "n3", "G"}, Hops: 2, Slots: []int{1, 4},
		Reachability: 0.9907, CycleProbs: []float64{0.9, 0.09, 0.0007},
		ExpectedDelayMS: 421.36, Delay: []DelayPoint{pt(40, 0.9), pt(240, 0.09)},
		Utilization: 0.0625,
	}
	return map[string]*Result{
		"zero":       {},
		"nil slices": {Key: "k", Paths: []PathResult{{Source: "n1"}}},
		"empty slices": {Key: "k", Paths: []PathResult{{
			Source: "n1", Route: []string{}, Slots: []int{}, CycleProbs: []float64{}, Delay: []DelayPoint{},
		}}, OverallDelay: []DelayPoint{}},
		"empty paths": {Key: "k", Paths: []PathResult{}},
		"full": {
			Key: "3f2a", Fup: 12, Is: 4, Schedule: "eta_a = (n1:1)",
			Paths:              []PathResult{full, {Source: "n2", Route: []string{"n2", "G"}, Hops: 1, Slots: []int{2}}},
			OverallMeanDelayMS: 235.37, OverallDelay: []DelayPoint{pt(10, 0.5), pt(20, 0.25)},
			Utilization: 0.2852,
		},
		"float boundaries": {
			Fup: -3, Is: math.MaxInt64, OverallMeanDelayMS: math.Copysign(0, -1), Utilization: math.MaxFloat64,
			OverallDelay: []DelayPoint{pt(5e-324, 1e-7), pt(9.99e-7, 1e-6), pt(1e21, 9.999999999999999e20), pt(-1e-7, -1e21), pt(1.2345678901234567e-6, -math.MaxFloat64)},
			Paths: []PathResult{{
				Source: "n1", Hops: math.MinInt64, Slots: []int{0, -1, math.MaxInt64},
				CycleProbs:   []float64{math.SmallestNonzeroFloat64, 1e-100, 1e-10, 0.1, 1e20, 1e100, -1e-320},
				Reachability: 1, ExpectedDelayMS: 1e-6, Utilization: 1e21,
			}},
		},
		"escaped names": {
			Key: `<>&"\`, Schedule: "tab\tnewline\nbell\x07 del\x7f",
			Paths: []PathResult{{
				Source: "a b c", Route: []string{
					"\xff\xfe", "é", "\u2028\u2029", "\x00", "\x1f", "\x7f", "</script>",
					"a<b", "a>b", "a&b", `a"b`, `a\b`, "~ !", "G",
				},
			}},
		},
	}
}

func TestWriterMatchesEncoder(t *testing.T) {
	for name, r := range writerCases() {
		checkWriter(t, name, r)
	}
}

// TestWriterCasesCoverSchema fails when Result, PathResult or DelayPoint
// gains an exported field that no case of writerCases sets, so a field the
// writer does not know cannot slip past the differential tests.
func TestWriterCasesCoverSchema(t *testing.T) {
	set := map[reflect.Type]map[string]bool{}
	note := func(v reflect.Value) {
		if set[v.Type()] == nil {
			set[v.Type()] = map[string]bool{}
		}
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() && !v.Field(i).IsZero() {
				set[v.Type()][f.Name] = true
			}
		}
	}
	for _, r := range writerCases() {
		note(reflect.ValueOf(r).Elem())
		for _, p := range r.Paths {
			note(reflect.ValueOf(p))
			for _, d := range p.Delay {
				note(reflect.ValueOf(d))
			}
		}
		for _, d := range r.OverallDelay {
			note(reflect.ValueOf(d))
		}
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(Result{}), reflect.TypeOf(PathResult{}), reflect.TypeOf(DelayPoint{})} {
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() && !set[typ][f.Name] {
				t.Errorf("no writer case sets %s.%s", typ.Name(), f.Name)
			}
		}
	}
}

// floatFields returns every exported float64 reachable from v, in field
// order.
func floatFields(v reflect.Value) []reflect.Value {
	var out []reflect.Value
	switch v.Kind() {
	case reflect.Float64:
		out = append(out, v)
	case reflect.Pointer:
		out = floatFields(v.Elem())
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			out = append(out, floatFields(v.Index(i))...)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				out = append(out, floatFields(v.Field(i))...)
			}
		}
	}
	return out
}

// TestWriterNonFiniteFloats: NaN or ±Inf in any float field, the first in
// field order when there are two, fails with the encoder's error text.
func TestWriterNonFiniteFloats(t *testing.T) {
	n := len(floatFields(reflect.ValueOf(writerCases()["full"])))
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for i := 0; i < n; i++ {
			r := writerCases()["full"]
			fs := floatFields(reflect.ValueOf(r))
			fs[i].SetFloat(bad)
			if i > 0 {
				fs[i-1].SetFloat(-bad)
			}
			if _, err := r.encode(); err == nil {
				t.Errorf("float %d = %v: no error", i, bad)
			}
			checkWriter(t, "non-finite", r)
		}
	}
}

func FuzzWriter(f *testing.F) {
	f.Add("k", "n1", 0.5, 1e-7, math.Copysign(0, -1), 1e21, 3, uint8(0))
	f.Add(`<a&b>`, " \xff", 5e-324, 9.99e-7, math.MaxFloat64, -1e-6, 0, uint8(0x3f))
	f.Add("", "", 0.0, 0.0, 0.0, 0.0, -1, uint8(0x15))
	f.Fuzz(func(t *testing.T, key, name string, a, b, c, d float64, n int, shape uint8) {
		// Bit i of shape makes the i-th slice non-nil, with n mod 4
		// elements; a clear bit leaves it nil.
		k := n % 4
		if k < 0 {
			k = -k
		}
		on := func(bit int) bool { return shape&(1<<bit) != 0 }
		p := PathResult{Source: name, Hops: n, Reachability: a, ExpectedDelayMS: b, Utilization: c}
		r := &Result{Key: key, Fup: n, Is: -n, Schedule: name, OverallMeanDelayMS: d, Utilization: a}
		if on(0) {
			p.Route = make([]string, k)
			for i := range p.Route {
				p.Route[i] = name + key
			}
		}
		if on(1) {
			p.Slots = make([]int, k)
			for i := range p.Slots {
				p.Slots[i] = n * i
			}
		}
		if on(2) {
			p.CycleProbs = make([]float64, k)
			for i := range p.CycleProbs {
				p.CycleProbs[i] = d * float64(i)
			}
		}
		if on(3) {
			p.Delay = make([]DelayPoint, k)
			for i := range p.Delay {
				p.Delay[i] = DelayPoint{MS: a * float64(i), Prob: d}
			}
		}
		if on(4) {
			r.Paths = make([]PathResult, k)
			for i := range r.Paths {
				r.Paths[i] = p
			}
		}
		if on(5) {
			r.OverallDelay = make([]DelayPoint, k)
			for i := range r.OverallDelay {
				r.OverallDelay[i] = DelayPoint{MS: b, Prob: c / float64(i+1)}
			}
		}
		checkWriter(t, "fuzz", r)
	})
}

// generatedResults solves TypicalSpec and the first n networks of gen seed
// 1 on a fresh engine.
func generatedResults(tb testing.TB, n int) []*Result {
	tb.Helper()
	eng := New(Config{})
	specs := []*spec.Spec{spec.TypicalSpec()}
	for i := 0; i < n; i++ {
		g, err := gen.Generate(1, i, gen.DefaultParams())
		if err != nil {
			tb.Fatal(err)
		}
		specs = append(specs, g.Spec)
	}
	out := make([]*Result, len(specs))
	for i, s := range specs {
		res, err := eng.Evaluate(context.Background(), s)
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = res
	}
	return out
}

func TestWriterMatchesEncoderOnSolvedNetworks(t *testing.T) {
	for _, r := range generatedResults(t, 64) {
		checkWriter(t, r.Key[:12], r)
	}
}

// TestEvaluateBodiesMatchEncoder: /v1/evaluate answers every source of
// TypicalSpec and of 8 generated networks with the indented encoding.
func TestEvaluateBodiesMatchEncoder(t *testing.T) {
	eng := New(Config{})
	h := NewHandler(eng, 30*time.Second)
	for _, s := range memoNetworks(t) {
		res := evaluateAll(t, eng, []*spec.Spec{s})[0]
		for _, p := range res.Paths {
			got := serve(t, h, "/v1/evaluate", map[string]any{"scenario": s, "source": p.Source})
			want := indented(t, evaluateResponse{Key: res.Key, Fup: res.Fup, Schedule: res.Schedule, Path: p})
			if !bytes.Equal(got, want) {
				t.Fatalf("scenario %s source %s: /v1/evaluate body differs from the indented encoding", res.Key[:12], p.Source)
			}
		}
	}
}

// BenchmarkResultEncoding is the first response encoding of 64 solved
// generated-network results (gen seed 1), assembled from the path members
// their solves already stored: the result-to-bytes tail of a cold
// /v1/network miss, minus the path-field formatting that
// BenchmarkPathEncoding measures. Each op encodes all 64.
func BenchmarkResultEncoding(b *testing.B) {
	results := generatedResults(b, 64)[1:]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range results {
			fresh := &Result{
				Key: r.Key, Fup: r.Fup, Is: r.Is, Schedule: r.Schedule, Paths: r.Paths,
				OverallMeanDelayMS: r.OverallMeanDelayMS, OverallDelay: r.OverallDelay, Utilization: r.Utilization,
			}
			if _, err := fresh.encoding(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkPathEncoding formats the members of every path of the same
// solved generated-network results through encodeTail: the float and
// field formatting each cold path solve pays once, in newPathEntry. Each
// op encodes every path.
func BenchmarkPathEncoding(b *testing.B) {
	var paths []*PathResult
	for _, r := range generatedResults(b, 64)[1:] {
		for i := range r.Paths {
			paths = append(paths, &r.Paths[i])
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range paths {
			if encodeTail(p) == nil {
				b.Fatal("path members not encodable")
			}
		}
	}
}
