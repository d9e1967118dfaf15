// Command whart-bench is the repository benchmark. It serves the
// evaluation engine as whart-server builds it by default, drives it with
// seeded closed-loop traffic from one keep-alive client per CPU, checks
// every answer, and prints each metric by name with its unit. The last
// line of a single-workload run is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage:
//
//	whart-bench -workload hot-read -seed 1 -seconds 30 [-trace 1]
//	whart-bench [-seed 1] [-runs 5] [-o results.json]
//	whart-bench compare OLD.json NEW.json
//
// Without -workload every workload runs, each in a fresh child process,
// -runs times with seeds seed, seed+1, ...; -o writes every run's values
// with per-workload medians and quartiles. compare applies the bounds in
// BENCHMARK.json to two such files and exits 1 when a row got worse, 3
// when none did but some row could not be resolved, and 0 otherwise.
// bench/README.md describes the workloads, the metrics and what each
// layer metric should move.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("whart-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run in this process (empty: all, one child process per run)")
	seed := fs.Uint64("seed", 1, "input seed; the same seed gives the same requests")
	seconds := fs.Int("seconds", 30, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced run instead of end-to-end ones")
	scale := fs.Float64("scale", 1, "scale every input size (0.01 for a smoke run)")
	runs := fs.Int("runs", 1, "runs per workload without -workload")
	out := fs.String("o", "", "without -workload: write every run's values, medians and quartiles here as JSON")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) || *scale <= 0 || *runs < 1 {
		fmt.Fprintln(stderr, "whart-bench: want -seconds >= 1, -trace 0 or 1, -scale > 0, -runs >= 1 and no arguments")
		return 2
	}
	if *name == "" {
		return orchestrate(*seed, *seconds, *trace, *scale, *runs, *out, stdout, stderr)
	}
	res, err := runWorkload(runConfig{
		workload: *name,
		seed:     *seed,
		duration: time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		scale:    *scale,
	}, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "whart-bench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "whart-bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// orchestrate runs every workload in a fresh child process, round-robin,
// runs times, and summarizes.
func orchestrate(seed uint64, seconds, trace int, scale float64, runs int, out string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "whart-bench: %v\n", err)
		return 1
	}
	file := &resultsFile{
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seconds:    seconds,
		Scale:      scale,
		Trace:      trace,
	}
	status := 0
	for r := 0; r < runs; r++ {
		for _, w := range workloads {
			s := seed + uint64(r)
			rec, err := child(self, w.name, s, seconds, trace, scale, stdout, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "whart-bench: %s seed %d: %v\n", w.name, s, err)
				status = 1
				continue
			}
			if !rec.Correct {
				status = 1
			}
			file.Runs = append(file.Runs, *rec)
		}
	}
	file.Summary = summarize(file.Runs)
	fmt.Fprintf(stdout, "\n%-16s %-36s %14s %14s %14s %s\n", "workload", "metric", "median", "q1", "q3", "unit")
	for _, w := range workloads {
		for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			if s := file.Summary[w.name][d.Name]; s != nil {
				fmt.Fprintf(stdout, "%-16s %-36s %14.6g %14.6g %14.6g %s\n", w.name, d.Name, s.Median, s.Q1, s.Q3, s.Unit)
			}
		}
	}
	if out != "" {
		if err := writeResults(out, file); err != nil {
			fmt.Fprintf(stderr, "whart-bench: %v\n", err)
			return 1
		}
	}
	return status
}

// child runs one workload in a fresh process, relays its output and
// decodes its result line.
func child(self, name string, seed uint64, seconds, trace int, scale float64, stdout, stderr io.Writer) (*runRecord, error) {
	cmd := exec.Command(self,
		"-workload", name,
		"-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(seconds),
		"-trace", strconv.Itoa(trace),
		"-scale", strconv.FormatFloat(scale, 'g', -1, 64))
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(stdout, &buf)
	cmd.Stderr = stderr
	start := time.Now()
	runErr := cmd.Run()
	wall := time.Since(start)
	var last []byte
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	rec := &runRecord{Workload: name, Seed: seed, WallS: wall.Seconds()}
	if err := json.Unmarshal(last, &rec.runResult); err != nil {
		return nil, errors.Join(runErr, fmt.Errorf("no result line: %w", err))
	}
	return rec, nil
}

// exitUnresolved is compare's exit code when no row got worse but some
// row's runs were too spread to tell; 1 means a row got worse and 2 a
// usage or input error.
const exitUnresolved = 3

func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: whart-bench compare OLD.json NEW.json")
		return 2
	}
	bench, err := loadBenchmark()
	if err != nil {
		fmt.Fprintf(stderr, "whart-bench: %v\n", err)
		return 2
	}
	old, err := readResults(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "whart-bench: %v\n", err)
		return 2
	}
	cur, err := readResults(args[1])
	if err != nil {
		fmt.Fprintf(stderr, "whart-bench: %v\n", err)
		return 2
	}
	counts := compare(bench, old, cur, stdout)
	switch {
	case counts["worse"] > 0:
		return 1
	case counts["unresolved"] > 0:
		return exitUnresolved
	}
	return 0
}
