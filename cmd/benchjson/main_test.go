package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"maps"
	"reflect"
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	r, ok := parseLine("BenchmarkResolve/cover-8   \t  50000\t     31415 ns/op\t    1024 B/op\t      12 allocs/op")
	if !ok {
		t.Fatal("line not parsed")
	}
	want := result{Name: "BenchmarkResolve/cover", Iterations: 50000,
		NsPerOp: 31415, BytesPerOp: 1024, AllocsPerOp: 12}
	if !reflect.DeepEqual(r, want) {
		t.Errorf("parsed %+v, want %+v", r, want)
	}

	// Without -benchmem there are no B/op or allocs/op columns.
	r, ok = parseLine("BenchmarkAppend-4   1000   98765.4 ns/op")
	if !ok || r.Name != "BenchmarkAppend" || r.NsPerOp != 98765.4 || r.BytesPerOp != 0 {
		t.Errorf("memless line parsed as %+v ok=%v", r, ok)
	}

	// Custom b.ReportMetric units land in the metrics map.
	r, ok = parseLine("BenchmarkResolveTracing/paired-8   100   200000 ns/op   12747 off_ns/req   13249 traced_ns/req   3.9 overhead_%")
	if !ok || r.Metrics["off_ns/req"] != 12747 || r.Metrics["traced_ns/req"] != 13249 || r.Metrics["overhead_%"] != 3.9 {
		t.Errorf("custom metrics parsed as %+v ok=%v", r, ok)
	}

	for _, line := range []string{
		"goos: linux",
		"PASS",
		"ok  \tcontextpref\t12.3s",
		"",
		"Benchmark",               // name only
		"BenchmarkX-8 notanumber", // bad iteration count
	} {
		if _, ok := parseLine(line); ok {
			t.Errorf("non-result line parsed: %q", line)
		}
	}
}

func TestRun(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: contextpref
BenchmarkResolveInstrumentation/off-8         	  146804	     16784 ns/op
BenchmarkResolveInstrumentation/on-8          	  131685	     16361 ns/op
PASS
ok  	contextpref	15.159s
`
	var out bytes.Buffer
	if err := run(bufio.NewScanner(strings.NewReader(in)), json.NewEncoder(&out)); err != nil {
		t.Fatal(err)
	}
	var results []result
	if err := json.Unmarshal(out.Bytes(), &results); err != nil {
		t.Fatalf("output not JSON: %v\n%s", err, out.String())
	}
	if len(results) != 2 {
		t.Fatalf("parsed %d results, want 2: %+v", len(results), results)
	}
	if results[0].Name != "BenchmarkResolveInstrumentation/off" || results[0].NsPerOp != 16784 {
		t.Errorf("first result = %+v", results[0])
	}

	// No benchmarks at all still yields a valid (empty) JSON array.
	out.Reset()
	if err := run(bufio.NewScanner(strings.NewReader("PASS\n")), json.NewEncoder(&out)); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(out.String()); got != "[]" {
		t.Errorf("empty input produced %q", got)
	}
}

func TestReadResultsBothForms(t *testing.T) {
	text := "goos: linux\nBenchmarkFig5TreeSizeReal-2   1   7506430 ns/op   1844378 B/op   31114 allocs/op   1027 order1Cells   1758 serialCells\nPASS\n"
	fromText, err := readResults(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	var js bytes.Buffer
	if err := json.NewEncoder(&js).Encode(fromText); err != nil {
		t.Fatal(err)
	}
	fromJSON, err := readResults(strings.NewReader("\n  " + js.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(fromText) != 1 || !reflect.DeepEqual(fromText, fromJSON) {
		t.Errorf("text read as %+v, its JSON as %+v", fromText, fromJSON)
	}
	if _, err := readResults(strings.NewReader("[{")); err == nil {
		t.Error("truncated JSON read without error")
	}
}

func TestCompare(t *testing.T) {
	baseline := []result{
		{Name: "BenchmarkFig5TreeSizeReal", NsPerOp: 7e6, AllocsPerOp: 31114, BytesPerOp: 1844378,
			Metrics: map[string]float64{"order1Cells": 1027, "serialCells": 1758}},
		{Name: "BenchmarkTable1UserStudy", NsPerOp: 6e7, Metrics: map[string]float64{"exact%": 71.25}},
		{Name: "BenchmarkAblationDistance/jaccard", NsPerOp: 1605, AllocsPerOp: 1, BytesPerOp: 90},
		{Name: "BenchmarkLoadProfile", NsPerOp: 1.2e6, AllocsPerOp: 4563, BytesPerOp: 536376,
			Metrics: map[string]float64{"custom": 1}},
	}
	same := func() []result {
		out := make([]result, len(baseline))
		for i, r := range baseline {
			r.Metrics = maps.Clone(r.Metrics)
			r.NsPerOp *= 3 // ns/op is never judged
			out[i] = r
		}
		return out
	}

	var out bytes.Buffer
	if bad := compare(baseline, same(), &out); bad != 0 {
		t.Errorf("identical paper metrics: %d reported bad\n%s", bad, out.String())
	}

	cur := same()
	cur[3].AllocsPerOp, cur[3].BytesPerOp = 4042, 395748
	cur[3].Metrics["custom"] = 2 // not a paper benchmark
	cur = append(cur, result{Name: "BenchmarkNew", NsPerOp: 1})
	out.Reset()
	if bad := compare(baseline, cur, &out); bad != 0 {
		t.Errorf("allocation and non-paper changes judged: %d bad\n%s", bad, out.String())
	}
	for _, want := range []string{"allocs/op 4563 → 4042 (-11.4%)", "B/op 536376 → 395748 (-26.2%)", "BenchmarkNew", "new"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}

	cur = same()
	cur[0].Metrics["order1Cells"] = 1028
	delete(cur[1].Metrics, "exact%")
	out.Reset()
	if bad := compare(baseline, cur, &out); bad != 2 {
		t.Errorf("a changed and a missing paper metric: %d bad, want 2\n%s", bad, out.String())
	}

	cur = same()[1:] // the Fig. 5 entry is gone: both its metrics are missing
	out.Reset()
	if bad := compare(baseline, cur, &out); bad != 2 || !strings.Contains(out.String(), "missing") {
		t.Errorf("a missing paper entry: %d bad, want 2\n%s", bad, out.String())
	}
}
