package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// quartiles follows Python's statistics.quantiles(n=4): for 1..10 that
// is [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{1, 2, 3})
	if q1 != 1 || med != 2 || q3 != 3 {
		t.Fatalf("quartiles(1,2,3) = %v %v %v, want 1 2 3", q1, med, q3)
	}
}

func TestVerdict(t *testing.T) {
	lat := specMetric{Name: "read_p50_ms", Better: "lower", Bound: 0.1}
	base := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	cases := []struct {
		name   string
		m      specMetric
		base   []float64
		change []float64
		want   string
	}{
		{"same runs", lat, base, base, "unchanged"},
		{"20% faster every pair", lat, base, scale(base, 0.8), "improved"},
		{"20% slower", lat, base, scale(base, 1.2), "regressed"},
		{"5% slower, within bound", lat, base, scale(base, 1.05), "unchanged"},
		{"spread wider than bound", lat, []float64{1, 2, 1, 2, 1, 2, 1, 2, 1, 2}, base, "unresolved"},
		{"higher is better", specMetric{Name: "capacity_ops_s", Better: "higher", Bound: 0.1}, base, scale(base, 1.2), "improved"},
		{"per-layer count moved up", specMetric{Name: "profiletree.cells_per_resolve", Better: "lower"}, base, scale(base, 1.5), "worse"},
	}
	for _, c := range cases {
		if got, _ := verdict(c.m, c.base, c.change); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	if _, st := verdict(lat, base, scale(base, 0.8)); st.wins != 10 || st.base[1] != 1 || st.change[1] != 0.8 {
		t.Errorf("20%% faster: wins %d, medians %v and %v; want 10, 1 and 0.8", st.wins, st.base[1], st.change[1])
	}
}

func TestCompareRefusesDifferentHosts(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end":[{"name":"setup_s","unit":"s","better":"lower","bound":0.25}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, h host, vals ...float64) string {
		path := filepath.Join(dir, name)
		for _, v := range vals {
			if err := appendJSON(path, record{Host: h, Seconds: 16, Workload: "hot-cache",
				Metrics: map[string]metric{"setup_s": {Value: v, Unit: "s", N: 5}}}); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	h := fingerprint()
	base := write("base.json", h, 1, 1.01, 0.99)
	change := write("change.json", h, 0.5, 0.51, 0.49)
	var out strings.Builder
	if err := compareFiles(spec, base, change, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "hot-cache: setup_s=improved") {
		t.Errorf("compare output lacks the improved setup_s row:\n%s", out.String())
	}
	other := h
	other.CPU = "another CPU"
	foreign := write("foreign.json", other, 0.5, 0.51, 0.49)
	if err := compareFiles(spec, base, foreign, &out); err == nil || !strings.Contains(err.Error(), "host") {
		t.Fatalf("compare across hosts: err %v, want a host-fingerprint refusal", err)
	}
}
