// Command cpbench is the end-to-end serving benchmark of the context-aware
// preference server. For each workload it builds cmd/cpserver from the
// checkout, launches it as a child process and drives it over loopback
// HTTP from two connections: a closed-loop warm-up, an open-loop
// fixed-rate latency phase, a closed-loop capacity phase, and a
// sequential pass whose answers are checked against a sequential-scan
// oracle. With -trace 1 it instead replays the same seeded op stream
// in-process through every layer of the stack and reports per-layer
// metrics (see traced.go).
//
// Usage, from the repository root:
//
//	bash cmd/cpbench/bench.sh [-workload all|hot-cache|cold-rank|write-mix|parked-users]
//	     [-seed 2007] [-seconds 12] [-trace 0|1] [-json file]
//	bash cmd/cpbench/bench.sh -compare base.json change.json
//
// Every metric prints as "<workload> <metric> <value> <unit> n=<samples>";
// the last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A failed op or a wrong answer
// fails the run: cpbench exits 1 without that line, so a printed result
// always has failed 0. -json appends each run, with the host fingerprint
// and the seed, to a file that -compare reads. README.md lists the
// workloads and metrics and why each exists.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metricDef names a metric and its unit. The lists below are the
// benchmark's vocabulary; BENCHMARK.json must match them exactly (the
// smoke test checks).
type metricDef struct{ name, unit string }

// endToEnd are the metrics a client of cpserver sees, measured with
// tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"read_p50_ms", "ms"},
	{"read_p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics, layer by layer.
var perLayer = []metricDef{
	{"httpapi.op_us.p50", "us"},
	{"httpapi.query_us.p50", "us"},
	{"httpapi.query_us.p99", "us"},
	{"httpapi.self_us.p50", "us"},
	{"httpapi.resp_bytes.mean", "bytes"},
	{"preference.parse_profile_ms", "ms"},
	{"directory.op_us.p50", "us"},
	{"directory.op_us.p99", "us"},
	{"directory.user_us.p50", "us"},
	{"directory.self_us.p50", "us"},
	{"directory.loads_per_op", "count"},
	{"directory.evictions_per_op", "count"},
	{"system.op_us.p50", "us"},
	{"system.query_us.p50", "us"},
	{"system.query_us.p99", "us"},
	{"querytree.hit_ratio", "ratio"},
	{"querytree.get_us.p50", "us"},
	{"querytree.dropped_per_write", "count"},
	{"query.execute_us.p50", "us"},
	{"query.execute_us.p99", "us"},
	{"query.result_tuples.mean", "count"},
	{"profiletree.resolve_us.p50", "us"},
	{"profiletree.resolve_us.p99", "us"},
	{"profiletree.resolve_all_us.p50", "us"},
	{"profiletree.cells_per_resolve", "count"},
	{"profiletree.candidates_per_resolve", "count"},
	{"profiletree.allocs_per_resolve", "count"},
	{"distance.calls_per_op", "count"},
	{"distance.us_per_op", "us"},
	{"journal.appends_per_op", "count"},
	{"journal.append_us.p50", "us"},
	{"journal.fsync_ms.mean", "ms"},
	{"journal.bytes_per_record", "bytes"},
	{"journal.replay_s", "s"},
	{"server.heap_mb", "MB"},
	{"loadgen.write_share", "ratio"},
	{"trace.overhead_pct", "%"},
}

// metric is one measured value with the number of samples behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// result is one workload run; a run with failed ops returns an error
// instead.
type result struct {
	workload  string
	correct   bool
	attempted int
	metrics   map[string]metric
	info      []string // validity figures printed beside the metrics
}

func (r *result) add(name string, v float64, unit string, n int) {
	if r.metrics == nil {
		r.metrics = make(map[string]metric)
	}
	r.metrics[name] = metric{Value: v, Unit: unit, N: n}
}

// host fingerprints the machine a run measured; -compare refuses to
// compare runs whose fingerprints differ.
type host struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func fingerprint() host {
	h := host{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPU: "unknown", NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// record is one run as -json writes it: a JSON line per workload run.
type record struct {
	Host     host              `json:"host"`
	Seed     int64             `json:"seed"`
	Seconds  int               `json:"seconds"`
	Traced   bool              `json:"traced"`
	Workload string            `json:"workload"`
	Correct  bool              `json:"correct"`
	Metrics  map[string]metric `json:"metrics"`
}

// defaultSeconds is the measured time of one run (BENCHMARK.json's
// run_seconds): half open loop, half closed loop.
const defaultSeconds = 12

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 2007, "seed every input is generated from")
	seconds := fs.Int("seconds", defaultSeconds, "measured seconds per run: half open loop, half closed loop")
	traced := false
	fs.Func("trace", "0 = end-to-end run; 1 = traced in-process run reporting per-layer metrics", func(v string) (err error) {
		traced, err = strconv.ParseBool(v)
		return err
	})
	jsonPath := fs.String("json", "", "append each run's record, with host fingerprint and seed, to this file")
	compare := fs.Bool("compare", false, "compare two -json files: -compare base.json change.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(stderr, "cpbench:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "cpbench: -compare takes two files: base.json change.json")
			return 2
		}
		if err := compareFiles(filepath.Join(root, "BENCHMARK.json"), fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, "cpbench:", err)
			return 1
		}
		return 0
	}
	if *seconds < 2 {
		fmt.Fprintln(stderr, "cpbench: -seconds must be at least 2")
		return 2
	}
	var selected []workload
	if *name == "all" {
		selected = workloads
	} else if w, ok := workloadByName(*name); ok {
		selected = []workload{w}
	} else {
		fmt.Fprintf(stderr, "cpbench: unknown workload %q\n", *name)
		return 2
	}

	work := filepath.Join(root, ".bench_build", "cpbench")
	bin := filepath.Join(root, ".bench_build", "bin", "cpserver")
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(stderr, "cpbench:", err)
		return 1
	}
	if !traced {
		if err := buildServer(root, bin); err != nil {
			fmt.Fprintln(stderr, "cpbench:", err)
			return 1
		}
	}
	var results []*result
	for _, w := range selected {
		var r *result
		defs := endToEnd
		if traced {
			r, err = runTraced(work, w, *seed)
			defs = perLayer
		} else {
			r, err = runE2E(work, bin, w, *seed, time.Duration(*seconds)*time.Second)
		}
		if err != nil {
			fmt.Fprintf(stderr, "cpbench: %s: %v\n", w.name, err)
			return 1
		}
		if err := printResult(stdout, r, defs); err != nil {
			fmt.Fprintf(stderr, "cpbench: %s: %v\n", w.name, err)
			return 1
		}
		if *jsonPath != "" {
			rec := record{Host: fingerprint(), Seed: *seed, Seconds: *seconds, Traced: traced,
				Workload: w.name, Correct: r.correct, Metrics: r.metrics}
			if err := appendJSON(*jsonPath, rec); err != nil {
				fmt.Fprintln(stderr, "cpbench:", err)
				return 1
			}
		}
		results = append(results, r)
	}
	if err := printSummary(stdout, results); err != nil {
		fmt.Fprintln(stderr, "cpbench:", err)
		return 1
	}
	return 0
}

// repoRoot checks that the working directory is the repository root:
// cpbench builds cpserver from this checkout's sources.
func repoRoot() (string, error) {
	root, err := os.Getwd()
	if err != nil {
		return "", err
	}
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil || !strings.HasPrefix(string(mod), "module contextpref\n") {
		return "", errors.New("run from the repository root (the directory holding the contextpref go.mod)")
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "cpserver", "main.go")); err != nil {
		return "", fmt.Errorf("no cmd/cpserver to build: %w", err)
	}
	return root, nil
}

// printResult prints one line per metric, in vocabulary order, and the
// run's validity figures. A metric missing from the run is a bug in
// cpbench.
func printResult(w io.Writer, r *result, defs []metricDef) error {
	for _, d := range defs {
		m, ok := r.metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		fmt.Fprintf(w, "%s %s %s %s n=%d\n", r.workload, d.name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit, m.N)
	}
	for _, line := range r.info {
		fmt.Fprintln(w, "#", line)
	}
	return nil
}

// printSummary prints the final JSON line. A single workload reports
// its metrics by name; "all" prefixes each with its workload.
func printSummary(w io.Writer, rs []*result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"` // always 0: a failed op fails the run before this line
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, r := range rs {
		out.Correct = out.Correct && r.correct
		out.Attempted += r.attempted
		for name, m := range r.metrics {
			if len(rs) > 1 {
				name = r.workload + "." + name
			}
			out.Metrics[name] = value{m.Value, m.Unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

func appendJSON(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
