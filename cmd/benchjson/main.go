// Command benchjson converts `go test -bench` text output on stdin
// into a JSON array on stdout, one object per benchmark result:
//
//	go test -run='^$' -bench=. -benchmem . | go run ./cmd/benchjson
//
// Each object carries the benchmark name (with the -N GOMAXPROCS
// suffix stripped), iteration count, ns/op, and — when -benchmem was
// set — B/op and allocs/op. Custom units emitted via b.ReportMetric
// (paired-measurement overheads, the experiment benchmarks' cells/q
// columns) land in a "metrics" map keyed by unit. Non-benchmark lines
// (goos/goarch headers, PASS, ok) are ignored, so the tool can sit at
// the end of any `go test` pipeline. Machine-readable benchmark files
// make perf regressions diffable in CI instead of eyeballed.
//
// With -compare it checks results against a committed BENCH file
// instead of converting them:
//
//	go test -run='^$' -bench=. -benchmem . | go run ./cmd/benchjson -compare BENCH_PR24.json
//	go run ./cmd/benchjson -compare BENCH_PR24.json < BENCH_PR25.json
//
// stdin is `go test -bench` text or a BENCH file's JSON. The paper's
// own counts, every metric of a BenchmarkTable1*, BenchmarkFig* and
// BenchmarkAblation* entry, must equal the file's: they are counts of
// cells and accuracy figures that no optimization may move, and they
// repeat exactly at any -benchtime. A changed or missing one makes the
// exit status 1. For every benchmark it prints the allocs/op and B/op
// change, which it does not judge; ns/op is not compared at all.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
)

// result is one parsed benchmark line.
type result struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64              `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// parseLine parses one "BenchmarkName-8   1000   1234 ns/op ..." line,
// returning ok=false for anything that is not a benchmark result.
func parseLine(line string) (result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return result{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	r := result{Name: name, Iterations: iters}
	// The remainder comes in "<value> <unit>" pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = int64(v)
		case "allocs/op":
			r.AllocsPerOp = int64(v)
		default:
			if r.Metrics == nil {
				r.Metrics = map[string]float64{}
			}
			r.Metrics[fields[i+1]] = v
		}
	}
	if r.NsPerOp == 0 {
		return result{}, false
	}
	return r, true
}

// scan parses every benchmark result line of `go test -bench` output.
func scan(in *bufio.Scanner) ([]result, error) {
	results := []result{}
	for in.Scan() {
		if r, ok := parseLine(in.Text()); ok {
			results = append(results, r)
		}
	}
	return results, in.Err()
}

func newScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	return sc
}

func run(in *bufio.Scanner, out *json.Encoder) error {
	results, err := scan(in)
	if err != nil {
		return err
	}
	return out.Encode(results)
}

// readResults reads benchmark results in either form benchjson knows: a
// JSON array as it writes one, or `go test -bench` text.
func readResults(r io.Reader) ([]result, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if trimmed := bytes.TrimSpace(data); len(trimmed) > 0 && trimmed[0] == '[' {
		var results []result
		if err := json.Unmarshal(trimmed, &results); err != nil {
			return nil, err
		}
		return results, nil
	}
	return scan(newScanner(bytes.NewReader(data)))
}

// paperBenchmark reports whether a benchmark reproduces one of the
// paper's tables, figures or ablations, whose metrics are invariants.
func paperBenchmark(name string) bool {
	for _, prefix := range []string{"BenchmarkTable1", "BenchmarkFig", "BenchmarkAblation"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// change renders "old → cur (±p%)".
func change(old, cur int64) string {
	pct := "n/a"
	if old != 0 {
		pct = fmt.Sprintf("%+.1f%%", 100*float64(cur-old)/float64(old))
	}
	return fmt.Sprintf("%d → %d (%s)", old, cur, pct)
}

// compare writes to w how cur differs from the baseline: each common
// benchmark's allocs/op and B/op change, benchmarks on one side only,
// and every paper metric that changed or is missing. It returns the
// number of those paper metrics.
func compare(baseline, cur []result, w io.Writer) int {
	byName := make(map[string]result, len(cur))
	for _, r := range cur {
		byName[r.Name] = r
	}
	bad, checked := 0, 0
	for _, old := range baseline {
		r, ok := byName[old.Name]
		delete(byName, old.Name)
		if ok {
			fmt.Fprintf(w, "%-52s allocs/op %-28s B/op %s\n", old.Name, change(old.AllocsPerOp, r.AllocsPerOp), change(old.BytesPerOp, r.BytesPerOp))
		} else {
			fmt.Fprintf(w, "%-52s missing\n", old.Name)
		}
		if !paperBenchmark(old.Name) {
			continue
		}
		units := make([]string, 0, len(old.Metrics))
		for unit := range old.Metrics {
			units = append(units, unit)
		}
		slices.Sort(units)
		for _, unit := range units {
			checked++
			v, ok := r.Metrics[unit]
			switch {
			case !ok:
				bad++
				fmt.Fprintf(w, "  PAPER METRIC MISSING %s: want %v\n", unit, old.Metrics[unit])
			case v != old.Metrics[unit]:
				bad++
				fmt.Fprintf(w, "  PAPER METRIC CHANGED %s: %v → %v\n", unit, old.Metrics[unit], v)
			}
		}
	}
	for _, r := range cur {
		if _, ok := byName[r.Name]; ok {
			fmt.Fprintf(w, "%-52s new\n", r.Name)
		}
	}
	fmt.Fprintf(w, "paper metrics: %d checked, %d changed or missing\n", checked, bad)
	return bad
}

// runCompare checks the results on in against the baseline file.
func runCompare(baselineFile string, in io.Reader, w io.Writer) (int, error) {
	f, err := os.Open(baselineFile)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	baseline, err := readResults(f)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", baselineFile, err)
	}
	cur, err := readResults(in)
	if err != nil {
		return 0, fmt.Errorf("stdin: %w", err)
	}
	return compare(baseline, cur, w), nil
}

func main() {
	baseline := flag.String("compare", "", "check stdin against this BENCH file instead of converting it: paper metrics must match")
	flag.Parse()
	if *baseline != "" {
		bad, err := runCompare(*baseline, os.Stdin, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		if bad > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d paper metrics differ from %s\n", bad, *baseline)
			os.Exit(1)
		}
		return
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := run(newScanner(os.Stdin), enc); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
