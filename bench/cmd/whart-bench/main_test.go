package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"wirelesshart/internal/spec"
)

func TestSameSeedSameRequests(t *testing.T) {
	bodies := func(seed uint64) map[string][][]byte {
		out := map[string][][]byte{}
		for _, ws := range workloads {
			w, err := ws.build(seed, 0.01)
			if err != nil {
				t.Fatalf("%s: %v", ws.name, err)
			}
			for _, seq := range [][]*request{w.prefill, w.warm, w.seq} {
				for _, r := range seq {
					out[ws.name] = append(out[ws.name], r.body)
				}
			}
		}
		return out
	}
	a, b, c := bodies(1), bodies(1), bodies(2)
	for _, ws := range workloads {
		if len(a[ws.name]) == 0 {
			t.Fatalf("%s: no requests", ws.name)
		}
		if !equalBodies(a[ws.name], b[ws.name]) {
			t.Errorf("%s: seed 1 gave different request bodies on two draws", ws.name)
		}
		if equalBodies(a[ws.name], c[ws.name]) {
			t.Errorf("%s: seeds 1 and 2 gave identical request bodies", ws.name)
		}
	}
}

func equalBodies(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func TestMetricsAndWorkloadsMatchBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench benchmarkFile
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range bench.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		kind      string
		file, cmd []metricDef
	}{{"end_to_end", bench.EndToEnd, endToEnd}, {"per_layer", bench.PerLayer, perLayer}} {
		if len(c.file) != len(c.cmd) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command %d", c.kind, len(c.file), len(c.cmd))
			continue
		}
		for i, m := range c.file {
			want := c.cmd[i]
			if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
				t.Errorf("%s %d: BENCHMARK.json %+v, command %+v", c.kind, i, m, want)
			}
			if c.kind == "end_to_end" && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
			}
		}
	}
}

// TestSmokeRunAllWorkloads runs every workload at 1 % scale, untraced and
// traced: nothing may fail, and each mode prints exactly its metric list.
func TestSmokeRunAllWorkloads(t *testing.T) {
	for _, ws := range workloads {
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			res, err := runWorkload(runConfig{
				workload: ws.name, seed: 1, duration: 150 * time.Millisecond,
				trace: trace, scale: 0.01,
			}, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", ws.name, trace, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s",
					ws.name, trace, res.Correct, res.Failed, res.Attempted, out.String())
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", ws.name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				if v, ok := res.Metrics[d.Name]; !ok || v.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", ws.name, trace, d.Name, v, d.Unit)
				}
				if !bytes.Contains(out.Bytes(), []byte(d.Name+" ")) {
					t.Errorf("%s trace=%v: %s not printed", ws.name, trace, d.Name)
				}
			}
		}
	}
}

func TestCheckerRejectsWrongAnswers(t *testing.T) {
	w, err := coldFleet(1, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	d, err := deploy(1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	r := w.seq[0]
	var buf bytes.Buffer
	if code, err := post(d.clients[0], d.url+r.path, r.body, &buf); err != nil || code != http.StatusOK {
		t.Fatalf("post: %d %v", code, err)
	}
	body := bytes.Clone(buf.Bytes())
	if err := checkKeys(body, r); err != nil {
		t.Fatalf("true key rejected: %v", err)
	}
	chk := newChecker()
	if err := chk.check(r, body, 0); err != nil {
		t.Fatalf("true answer rejected: %v", err)
	}

	chk.refs[r.scns[0]].overall *= 1 + 1e-8
	if err := chk.check(r, body, 0); err == nil {
		t.Error("checker accepted an answer 1e-8 off the corrupted reference")
	}
	wrong := *r
	wrong.scns = []*scenario{{key: "00" + r.scns[0].key[2:]}}
	if err := checkKeys(body, &wrong); err == nil {
		t.Error("key check accepted a response for another key")
	}

	typical, err := newScenario(spec.TypicalSpec())
	if err != nil {
		t.Fatal(err)
	}
	tr := networkRequest(typical)
	if code, err := post(d.clients[0], d.url+tr.path, tr.body, &buf); err != nil || code != http.StatusOK {
		t.Fatalf("post typical: %d %v", code, err)
	}
	if err := checkAnchors(buf.Bytes()); err != nil {
		t.Fatalf("paper anchors rejected: %v", err)
	}
	off := bytes.Replace(buf.Bytes(), []byte(`"overallMeanDelayMS": 235`), []byte(`"overallMeanDelayMS": 237`), 1)
	if err := checkAnchors(off); err == nil {
		t.Error("anchor check accepted E[Gamma] 2 ms off the paper")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "p50_ms", Better: "lower", Bound: 0.05}
	sum := func(vs ...float64) *summary {
		s := &summary{Values: vs}
		s.Q1, s.Median, s.Q3 = quartiles(vs)
		return s
	}
	steady := sum(10, 10, 10.1, 10.1, 10.2)
	for _, c := range []struct {
		cur  *summary
		want string
	}{
		{sum(10, 10.1, 10.1, 10.2, 10.2), "same"},
		{sum(12, 12, 12.1, 12.1, 12.2), "worse"},
		{sum(8, 8, 8.1, 8.1, 8.2), "better"},
		{sum(9, 10, 11, 12, 13), "unresolved"},
		{sum(5, 6, 7, 8, 9.9), "better"},
		{sum(10.3, 12, 14, 16, 18), "worse"},
	} {
		if got := verdict(lower, steady, c.cur); got != c.want {
			t.Errorf("verdict(%v) = %s, want %s", c.cur.Values, got, c.want)
		}
	}
	// A noisy baseline: a 40 % throughput drop must still read as worse.
	higher := metricDef{Name: "throughput_rps", Better: "higher", Bound: 0.25}
	if got := verdict(higher, sum(5196, 5043, 3884), sum(3000, 3000, 3000)); got != "worse" {
		t.Errorf("40 %% drop against a spread baseline: %s, want worse", got)
	}
}

func TestCompareExitCodes(t *testing.T) {
	dir := t.TempDir()
	file := func(name string, vs ...float64) string {
		f := &resultsFile{}
		for _, v := range vs {
			f.Runs = append(f.Runs, runRecord{Workload: "hot-read", runResult: runResult{
				Correct: true, Attempted: 1,
				Metrics: map[string]metricValue{"throughput_rps": {Value: v, Unit: "1/s"}},
			}})
		}
		f.Summary = summarize(f.Runs)
		path := filepath.Join(dir, name)
		if err := writeResults(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := file("base.json", 100, 101, 102, 103, 104)
	for _, c := range []struct {
		name string
		vs   []float64
		want int
	}{
		{"same.json", []float64{100, 101, 102, 103, 104}, 0},
		{"worse.json", []float64{10, 11, 12, 13, 14}, 1},
		{"noisy.json", []float64{60, 80, 100, 120, 140}, exitUnresolved},
	} {
		var out, errOut bytes.Buffer
		if got := run([]string{"compare", base, file(c.name, c.vs...)}, &out, &errOut); got != c.want {
			t.Errorf("compare %s: exit %d, want %d\n%s%s", c.name, got, c.want, out.String(), errOut.String())
		}
	}
}
