package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// record is the -out file: every untraced run's end-to-end values per
// workload, under the issue's names, which -compare reads back.
type record struct {
	Seed      int64                    `json:"seed"`
	Seconds   float64                  `json:"seconds"`
	Scale     float64                  `json:"scale"`
	Workloads map[string]*workloadRuns `json:"workloads"`
}

type workloadRuns struct {
	Sizes     string               `json:"sizes"`
	Digest    string               `json:"result_digest"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Values    map[string][]float64 `json:"values"` // metric → one value per run
}

func newRecord(seed int64, seconds, scale float64) *record {
	return &record{Seed: seed, Seconds: seconds, Scale: scale, Workloads: map[string]*workloadRuns{}}
}

func (rec *record) add(r *result) {
	w := rec.Workloads[r.Workload]
	if w == nil {
		w = &workloadRuns{Values: map[string][]float64{}}
		rec.Workloads[r.Workload] = w
	}
	w.Sizes, w.Digest = r.Sizes, fmt.Sprintf("%016x", r.Digest)
	w.Attempted += r.Attempted
	w.Failed += r.Failed
	for _, m := range endToEnd {
		if v, ok := r.Values[m.Name]; ok {
			w.Values[m.Name] = append(w.Values[m.Name], v)
		}
	}
}

func (rec *record) write(path string) error {
	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// print reports median and quartiles per metric over the runs.
func (rec *record) print(f io.Writer) {
	for _, w := range workloads {
		runs := rec.Workloads[w.name]
		if runs == nil {
			continue
		}
		fmt.Fprintf(f, "== %s  %s\n   digest %s, attempted %d, failed %d\n", w.name, runs.Sizes, runs.Digest, runs.Attempted, runs.Failed)
		for _, m := range endToEnd {
			v, ok := runs.Values[m.Name]
			if !ok {
				continue
			}
			q1, q3 := quartiles(v)
			fmt.Fprintf(f, "  %-18s median %12.4f %-5s q1 %12.4f q3 %12.4f spread %-7s (bound %s) runs=%d\n",
				m.Name, median(v), m.Unit, q1, q3, m.amount(m.spread(v)), m.amount(m.Bound), len(v))
		}
	}
}

// worsening is by how much value is worse than base (negative: better),
// given the metric's direction: as a share of base, or as a difference
// for a metric with an absolute bound.
func (m metricDef) worsening(base, value float64) float64 {
	d := value - base
	if m.Better == "higher" {
		d = -d
	}
	if m.Abs {
		return d
	}
	if base == 0 {
		return 0
	}
	return d / math.Abs(base)
}

// spread is the run-to-run noise of v in the terms of the metric's bound:
// the interquartile range, as a share of the median unless the bound is
// absolute.
func (m metricDef) spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	if m.Abs {
		return q3 - q1
	}
	if med := median(v); med != 0 {
		return (q3 - q1) / math.Abs(med)
	}
	return 0
}

// amount prints a worsening, spread or bound of the metric.
func (m metricDef) amount(x float64) string {
	if m.Abs {
		return fmt.Sprintf("%.4g %s", x, m.Unit)
	}
	return fmt.Sprintf("%.1f%%", 100*x)
}

// verdict judges one (metric, workload) pair: the new median against the
// old one, with the metric's bound as the margin both ways. When either
// side's own run-to-run spread is wider than the bound the pair cannot
// be judged.
func verdict(m metricDef, old, new []float64) string {
	if m.spread(old) > m.Bound || m.spread(new) > m.Bound {
		return "unresolved"
	}
	switch w := m.worsening(median(old), median(new)); {
	case w > m.Bound:
		return "worse"
	case w < -m.Bound:
		return "better"
	}
	return "within-bound"
}

func readRecord(path string) (*record, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rec := &record{}
	if err := json.Unmarshal(buf, rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rec, nil
}

// compareFiles prints one row per (metric, workload) and fails on any
// "worse" row.
func compareFiles(f io.Writer, oldPath, newPath string) error {
	old, err := readRecord(oldPath)
	if err != nil {
		return err
	}
	new, err := readRecord(newPath)
	if err != nil {
		return err
	}
	if old.Seed != new.Seed || old.Seconds != new.Seconds || old.Scale != new.Scale {
		fmt.Fprintf(f, "WARNING: settings differ (seed %d/%d, seconds %g/%g, scale %g/%g): rows are not comparable\n",
			old.Seed, new.Seed, old.Seconds, new.Seconds, old.Scale, new.Scale)
	}
	worse := 0
	fmt.Fprintf(f, "%-13s %-18s %14s %14s %-5s %22s  %s\n", "workload", "metric", "old median", "new median", "unit", "new/old (base: old)", "verdict")
	for _, w := range workloads {
		a, b := old.Workloads[w.name], new.Workloads[w.name]
		if a == nil || b == nil {
			fmt.Fprintf(f, "%-13s missing from one side\n", w.name)
			continue
		}
		if a.Digest != b.Digest {
			fmt.Fprintf(f, "WARNING: %s result_digest changed: %s -> %s\n", w.name, a.Digest, b.Digest)
		}
		for _, m := range endToEnd {
			va, vb := a.Values[m.Name], b.Values[m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue // the metric does not exist on this workload
			}
			v := verdict(m, va, vb)
			if v == "worse" {
				worse++
			}
			ratio := 0.0
			if ma := median(va); ma != 0 {
				ratio = median(vb) / ma
			}
			fmt.Fprintf(f, "%-13s %-18s %14.4f %14.4f %-5s %14.4f of %-6.4g  %s (spread %s / %s, bound %s)\n",
				w.name, m.Name, median(va), median(vb), m.Unit, ratio, median(va), v,
				m.amount(m.spread(va)), m.amount(m.spread(vb)), m.amount(m.Bound))
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d row(s) worse than the bound allows", worse)
	}
	return nil
}
