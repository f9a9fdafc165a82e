package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json -compare needs.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // 0 for per-layer metrics: they have no regression bound
}

func readSpec(path string) (benchSpec, error) {
	var spec benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return spec, fmt.Errorf("parsing %s: %w", path, err)
	}
	return spec, nil
}

// readRecords reads a -json file: one record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// quartiles returns the first quartile, median and third quartile of xs
// (at least two values), with the quartiles computed as Python's
// statistics.quantiles(xs, n=4) does, so spreads read the same as the
// tools that gate on them.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), median(s), q(3)
}

// verdict classifies one metric of one workload over paired runs, by the
// rules the benchmark's regression gate applies:
//
//   - if the parent's own spread (quartile distance over median) exceeds
//     the bound, the metric is unresolved — unless every change run reads
//     better than every parent run, which counts as improved;
//   - a change median worse than the parent's by more than the bound is
//     regressed;
//   - a change that wins at least 9 of 10 pairs and whose median differs
//     by more than the parent's quartile distance is improved;
//   - anything else is unchanged.
//
// Per-layer metrics have no bound (0): they skip the first two rules,
// and a change that loses 9 of 10 pairs by more than the spread is
// reported as worse.
func verdict(m specMetric, base, change []float64) (string, pairStats) {
	better := func(a, b float64) bool { // a reads better than b
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	var st pairStats
	st.base[0], st.base[1], st.base[2] = quartiles(base)
	st.change[0], st.change[1], st.change[2] = quartiles(change)
	medB, medC := st.base[1], st.change[1]
	iqr := st.base[2] - st.base[0]
	losses := 0
	for i := range base {
		switch {
		case better(change[i], base[i]):
			st.wins++
		case better(base[i], change[i]):
			losses++
		}
	}
	allBetter := true
	for _, c := range change {
		for _, b := range base {
			allBetter = allBetter && better(c, b)
		}
	}
	if m.Bound > 0 {
		if medB != 0 && iqr/math.Abs(medB) > m.Bound {
			if allBetter {
				return "improved", st
			}
			return "unresolved", st
		}
		if better(medB, medC) && math.Abs(medC-medB) > m.Bound*math.Abs(medB) {
			return "regressed", st
		}
	}
	need := int(math.Ceil(0.9 * float64(len(base))))
	switch {
	case st.wins >= need && better(medC, medB) && math.Abs(medC-medB) > iqr:
		return "improved", st
	case m.Bound == 0 && losses >= need && better(medB, medC) && math.Abs(medC-medB) > iqr:
		return "worse", st
	}
	return "unchanged", st
}

// pairStats are the figures a verdict rests on: each side's first
// quartile, median and third quartile, and the pairs the change won.
type pairStats struct {
	base, change [3]float64
	wins         int
}

// compareFiles compares paired runs of a parent (base) and a change.
// Run i of a workload in base pairs with run i of the same workload in
// change; alternate which side runs first when collecting them.
func compareFiles(specPath, basePath, changePath string, w io.Writer) error {
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	base, err := readRecords(basePath)
	if err != nil {
		return err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return err
	}
	if len(base) == 0 || len(change) == 0 {
		return fmt.Errorf("nothing to compare: %d base and %d change records", len(base), len(change))
	}
	for _, r := range append(append([]record(nil), base...), change...) {
		if r.Host != base[0].Host {
			return fmt.Errorf("host fingerprints differ (%+v vs %+v): runs from different hosts are not comparable", base[0].Host, r.Host)
		}
		if r.Seconds != base[0].Seconds {
			return fmt.Errorf("run lengths differ (%ds vs %ds): both sides must run the same benchmark settings", base[0].Seconds, r.Seconds)
		}
	}
	type key struct {
		workload string
		traced   bool
	}
	group := func(rs []record) (map[key][]record, []key) {
		out := map[key][]record{}
		var order []key
		for _, r := range rs {
			k := key{r.Workload, r.Traced}
			if _, ok := out[k]; !ok {
				order = append(order, k)
			}
			out[k] = append(out[k], r)
		}
		return out, order
	}
	bg, order := group(base)
	cg, _ := group(change)
	fmt.Fprintf(w, "host: %s, %d CPUs, %s\n", base[0].Host.CPU, base[0].Host.NumCPU, base[0].Host.GoVersion)
	for _, k := range order {
		bs, cs := bg[k], cg[k]
		n := min(len(bs), len(cs))
		if n < 2 {
			fmt.Fprintf(w, "%s: %d paired runs; need at least 2 (10 to claim a gain)\n", k.workload, n)
			continue
		}
		metrics := spec.EndToEnd
		if k.traced {
			metrics = spec.PerLayer
		}
		var row []string
		var detail []string
		for _, m := range metrics {
			b, c := make([]float64, n), make([]float64, n)
			missing := false
			for i := 0; i < n; i++ {
				bm, ok1 := bs[i].Metrics[m.Name]
				cm, ok2 := cs[i].Metrics[m.Name]
				missing = missing || !ok1 || !ok2
				b[i], c[i] = bm.Value, cm.Value
			}
			if missing {
				row = append(row, m.Name+"=missing")
				continue
			}
			v, st := verdict(m, b, c)
			row = append(row, m.Name+"="+v)
			delta := math.NaN()
			if st.base[1] != 0 {
				delta = (st.change[1] - st.base[1]) / math.Abs(st.base[1]) * 100
			}
			detail = append(detail, fmt.Sprintf("  %-36s base %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  %+.1f%%  wins %d/%d  %s",
				m.Name, st.base[1], st.base[0], st.base[2], st.change[1], st.change[0], st.change[2], delta, st.wins, n, v))
		}
		label := k.workload
		if k.traced {
			label += " (traced)"
		}
		fmt.Fprintf(w, "%s: %s\n", label, strings.Join(row, " "))
		for _, d := range detail {
			fmt.Fprintln(w, d)
		}
	}
	return nil
}
