package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// metricDef names one metric as BENCHMARK.json lists it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the service sees, reported by every
// untraced run. Bounds live in BENCHMARK.json.
var endToEnd = []metricDef{
	{Name: "throughput_rps", Unit: "1/s", Better: "higher"},
	{Name: "p50_ms", Unit: "ms", Better: "lower"},
	{Name: "p95_ms", Unit: "ms", Better: "lower"},
	{Name: "cpu_ms_per_req", Unit: "ms", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
}

// perLayer are the traced run's metrics, one group per layer.
var perLayer = []metricDef{
	{Name: "http.handler_us", Unit: "us", Better: "lower"},
	{Name: "http.transport_us", Unit: "us", Better: "lower"},
	{Name: "http.codec_us", Unit: "us", Better: "lower"},
	{Name: "http.req_kb", Unit: "kB", Better: "lower"},
	{Name: "http.resp_kb", Unit: "kB", Better: "lower"},
	{Name: "spec.parse_us", Unit: "us", Better: "lower"},
	{Name: "spec.build_us", Unit: "us", Better: "lower"},
	{Name: "engine.key_us", Unit: "us", Better: "lower"},
	{Name: "engine.evaluate_hit_us", Unit: "us", Better: "lower"},
	{Name: "engine.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "engine.dedup_joins", Unit: "count", Better: "higher"},
	{Name: "engine.struct_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "engine.kernel_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "engine.solves_per_req", Unit: "count", Better: "lower"},
	{Name: "engine.solve_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "engine.batch_dedup_ratio", Unit: "ratio", Better: "higher"},
	{Name: "engine.heap_retained_mb", Unit: "MB", Better: "lower"},
	{Name: "pathmodel.structure_us", Unit: "us", Better: "lower"},
	{Name: "pathmodel.bind_us", Unit: "us", Better: "lower"},
	{Name: "pathmodel.solve_us", Unit: "us", Better: "lower"},
	{Name: "core.measures_us", Unit: "us", Better: "lower"},
	{Name: "core.analyze_us", Unit: "us", Better: "lower"},
	{Name: "pathmodel.solve_batch_us_per_model", Unit: "us", Better: "lower"},
	{Name: "pathmodel.paths_per_req", Unit: "count", Better: "lower"},
	{Name: "pathmodel.states_per_path", Unit: "count", Better: "lower"},
	{Name: "cluster.forward_ratio", Unit: "ratio", Better: "lower"},
	{Name: "cluster.post_us", Unit: "us", Better: "lower"},
	{Name: "cluster.degraded_local", Unit: "count", Better: "lower"},
	{Name: "ladder.explained_frac", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run's outcome, printed as the last line of stdout.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricSet collects measured values with optional notes (sample counts)
// for the human-readable lines.
type metricSet struct {
	values map[string]float64
	notes  map[string]string
}

func newMetricSet() *metricSet {
	return &metricSet{values: map[string]float64{}, notes: map[string]string{}}
}

func (m *metricSet) set(name string, v float64, note string) {
	m.values[name] = v
	if note != "" {
		m.notes[name] = note
	}
}

// result fills r.Metrics from defs in order, failing on any metric the
// run did not measure.
func (m *metricSet) result(r *runResult, defs []metricDef, w io.Writer) error {
	r.Metrics = map[string]metricValue{}
	for _, d := range defs {
		v, ok := m.values[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "%-36s %16.6g %-6s %s\n", d.Name, v, d.Unit, m.notes[d.Name])
	}
	return nil
}

// quantile interpolates the q-quantile of an ascending sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// quartiles matches Python's statistics.quantiles(values, n=4), the
// default "exclusive" method.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	ld := len(s)
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// resultsFile is what -o writes: every run's raw values and, per workload
// and metric, the median and quartiles over runs.
type resultsFile struct {
	GoVersion  string                         `json:"goVersion"`
	NProc      int                            `json:"nproc"`
	GOMAXPROCS int                            `json:"gomaxprocs"`
	Seconds    int                            `json:"seconds"`
	Scale      float64                        `json:"scale"`
	Trace      int                            `json:"trace"`
	Runs       []runRecord                    `json:"runs"`
	Summary    map[string]map[string]*summary `json:"summary"`
}

type runRecord struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// WallS is the child process's whole run, set-up and checks included.
	WallS float64 `json:"wallS"`
	runResult
}

type summary struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

// spread is the quartile distance as a share of the median.
func (s *summary) spread() float64 {
	if s.Median == 0 {
		return math.Inf(1)
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

func summarize(runs []runRecord) map[string]map[string]*summary {
	out := map[string]map[string]*summary{}
	for _, r := range runs {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string]*summary{}
		}
		for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			v, ok := r.Metrics[d.Name]
			if !ok {
				continue
			}
			s := out[r.Workload][d.Name]
			if s == nil {
				s = &summary{Unit: v.Unit}
				out[r.Workload][d.Name] = s
			}
			s.Values = append(s.Values, v.Value)
		}
	}
	for _, w := range workloads {
		for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			if s := out[w.name][d.Name]; s != nil {
				s.Q1, s.Median, s.Q3 = quartiles(s.Values)
			}
		}
	}
	return out
}

func writeResults(path string, f *resultsFile) error {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// benchmarkFile is the part of BENCHMARK.json the command reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadBenchmark reads BENCHMARK.json from the working directory or the
// nearest directory above it.
func loadBenchmark() (*benchmarkFile, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var f benchmarkFile
			if err := json.Unmarshal(b, &f); err != nil {
				return nil, fmt.Errorf("BENCHMARK.json: %w", err)
			}
			return &f, nil
		}
		if !errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, errors.New("BENCHMARK.json not found in the working directory or above it")
		}
		dir = parent
	}
}

// compare prints one row per workload and end-to-end metric and counts
// the rows by verdict.
func compare(bench *benchmarkFile, old, cur *resultsFile, w io.Writer) map[string]int {
	counts := map[string]int{}
	fmt.Fprintf(w, "%-16s %-18s %14s %14s %8s %8s %8s %8s  %s\n",
		"workload", "metric", "old", "new", "delta", "bound", "spreadA", "spreadB", "verdict")
	for _, wl := range workloads {
		for _, m := range bench.EndToEnd {
			o, n := old.Summary[wl.name][m.Name], cur.Summary[wl.name][m.Name]
			if o == nil || n == nil {
				continue
			}
			v := verdict(m, o, n)
			counts[v]++
			fmt.Fprintf(w, "%-16s %-18s %14.6g %14.6g %+7.2f%% %7.1f%% %7.1f%% %7.1f%%  %s\n",
				wl.name, m.Name, o.Median, n.Median, 100*(n.Median-o.Median)/o.Median,
				100*m.Bound, 100*o.spread(), 100*n.spread(), v)
		}
	}
	return counts
}

// verdict applies a metric's bound to two sets of runs. When either side's
// quartile spread exceeds the bound, the medians cannot resolve a change
// of that size: the row is better or worse only when every new run beats,
// or trails, every old run, and unresolved otherwise.
func verdict(m metricDef, old, cur *summary) string {
	if old.spread() > m.Bound || cur.spread() > m.Bound {
		switch {
		case allBetter(m, old.Values, cur.Values):
			return "better"
		case allBetter(m, cur.Values, old.Values):
			return "worse"
		}
		return "unresolved"
	}
	// worsening is the relative change in the metric's bad direction.
	worsening := (cur.Median - old.Median) / old.Median
	if m.Better == "higher" {
		worsening = -worsening
	}
	switch {
	case worsening > m.Bound:
		return "worse"
	case worsening < -m.Bound:
		return "better"
	}
	return "same"
}

// allBetter reports whether every value of cur is better than every value
// of old.
func allBetter(m metricDef, old, cur []float64) bool {
	for _, o := range old {
		for _, c := range cur {
			better := c < o
			if m.Better == "higher" {
				better = c > o
			}
			if !better {
				return false
			}
		}
	}
	return true
}
