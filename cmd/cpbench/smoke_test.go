package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// deterministicCounts are traced-run metrics that count work rather
// than time it: the same seed must reproduce them exactly.
var deterministicCounts = []string{
	"profiletree.cells_per_resolve",
	"distance.calls_per_op",
	"querytree.hit_ratio",
	"directory.loads_per_op",
	"journal.bytes_per_record",
}

// The benchmark's metric vocabulary — names, units, and which list
// each belongs to — is exactly what BENCHMARK.json declares.
func TestVocabularyMatchesBenchmarkJSON(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	check := func(list string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, cpbench emits %d", list, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), cpbench %s (%s)", list, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)

	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, cpbench runs %v", names, want)
	}
}

func metricNames(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func defNames(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.name)
	}
	sort.Strings(out)
	return out
}

// Every workload runs end to end against a real cpserver at a tiny
// scale with one-second phases, passes the correctness gate, and emits
// exactly the declared metrics; the traced run emits the per-layer
// metrics, and its work counts repeat exactly for the same seed.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cpserver and runs every workload")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "cpserver")
	if err := buildServer(root, bin); err != nil {
		t.Fatal(err)
	}
	work := t.TempDir()
	for _, full := range workloads {
		w := tiny(full)
		t.Run(w.name, func(t *testing.T) {
			r, err := runE2E(work, bin, w, 7, 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if !r.correct || r.attempted == 0 {
				t.Fatalf("e2e run: correct %v, attempted %d", r.correct, r.attempted)
			}
			if got, want := metricNames(r.metrics), defNames(endToEnd); !reflect.DeepEqual(got, want) {
				t.Fatalf("e2e metrics %v, want %v", got, want)
			}
			for _, d := range endToEnd {
				if m := r.metrics[d.name]; m.Unit != d.unit || m.Value <= 0 {
					t.Errorf("%s = %v %s, want a positive value in %s", d.name, m.Value, m.Unit, d.unit)
				}
			}
			var out strings.Builder
			if err := printResult(&out, r, endToEnd); err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(out.String(), w.name+" setup_s ") {
				t.Errorf("metric lines start %q", out.String()[:min(len(out.String()), 40)])
			}

			t1, err := runTraced(work, w, 7)
			if err != nil {
				t.Fatal(err)
			}
			t2, err := runTraced(work, w, 7)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := metricNames(t1.metrics), defNames(perLayer); !reflect.DeepEqual(got, want) {
				t.Fatalf("traced metrics %v, want %v", got, want)
			}
			for _, name := range deterministicCounts {
				if a, b := t1.metrics[name].Value, t2.metrics[name].Value; a != b {
					t.Errorf("%s: %v then %v for the same seed", name, a, b)
				}
			}
			if fi, err := os.Stat(filepath.Join(work, "spans-"+w.name+"-7.jsonl")); err != nil || fi.Size() == 0 {
				t.Errorf("no spans written: %v", err)
			}
		})
	}

	// A server that fails some requests fails the run: no metrics over
	// the ops that happened to succeed. cpserver's chaos flags make it
	// answer a seeded 5% of non-probe requests with 500; write-mix needs
	// no upload, so setup still succeeds and the failures hit the load.
	t.Run("failing-server", func(t *testing.T) {
		chaotic := filepath.Join(t.TempDir(), "cpserver-chaos")
		script := "#!/bin/sh\nexec '" + bin + "' \"$@\" -chaos-error-rate 0.05 -chaos-seed 1\n"
		if err := os.WriteFile(chaotic, []byte(script), 0o755); err != nil {
			t.Fatal(err)
		}
		w, _ := workloadByName("write-mix")
		r, err := runE2E(work, chaotic, tiny(w), 7, 2*time.Second)
		if err == nil || !strings.Contains(err.Error(), "load ops failed") || !strings.Contains(err.Error(), "status 500") {
			t.Fatalf("run against a failing server: result %v, err %v; want a failed-ops error", r, err)
		}
	})
}

// The last line of output is one JSON object with exactly the keys
// correct, attempted, failed and metrics; each metric has a value and a
// unit.
func TestSummaryLineShape(t *testing.T) {
	r := &result{workload: "hot-cache", correct: true, attempted: 10}
	r.add("setup_s", 0.5, "s", 5)
	var out strings.Builder
	if err := printSummary(&out, []*result{r}); err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range doc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if !reflect.DeepEqual(keys, []string{"attempted", "correct", "failed", "metrics"}) {
		t.Fatalf("summary keys %v", keys)
	}
	var metrics map[string]map[string]any
	if err := json.Unmarshal(doc["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if m := metrics["setup_s"]; len(m) != 2 || m["value"] != 0.5 || m["unit"] != "s" {
		t.Fatalf("setup_s entry %v", m)
	}
}
