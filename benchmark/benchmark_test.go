package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// namedOn lists the end-to-end metrics each workload reports; between
// them the workloads report all thirteen.
var namedOn = map[string][]string{
	"batch_wide":   {"setup_s", "job_s", "peak_heap_mb", "link_f1", "failed_ratio"},
	"link_scale":   {"setup_s", "job_s", "peak_heap_mb", "link_f1", "failed_ratio"},
	"stream_churn": {"setup_s", "peak_heap_mb", "link_f1", "deltas_per_s", "publish_full_ms", "failed_ratio"},
	"serve_live": {"setup_s", "query_p50_ms", "query_p99_ms", "live_query_p99_ms", "live_qps", "freshness_p50_ms",
		"search_hit_ratio", "failed_ratio"},
}

func TestEveryNamedMetricIsReported(t *testing.T) {
	reported := map[string]bool{}
	for _, names := range namedOn {
		for _, name := range names {
			reported[name] = true
		}
	}
	for _, m := range endToEnd {
		if !reported[m.Name] {
			t.Errorf("no workload reports %s", m.Name)
		}
	}
}

// TestSmoke runs every workload at about 1/50 size, untraced and traced,
// and checks what the driver and a reader of the trace rely on.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel() // nothing below asserts a timing
			h := &harness{seed: 42, seconds: 0.2, scale: 0.02, tmpDir: t.TempDir(), traceDir: t.TempDir()}
			if w.name == "serve_live" {
				h.seconds = 3.6 // long enough for the live phase to hold one publish
			}
			w.qualityFloor = 0 // the floors are committed for full-size inputs
			var (
				plain   *result
				plainEr error
				done    = make(chan struct{})
			)
			go func() {
				defer close(done)
				plain, plainEr = h.once(w, false)
			}()
			traced, err := h.once(w, true)
			<-done
			if err != nil || plainEr != nil {
				t.Fatal(err, plainEr)
			}
			for _, r := range []*result{plain, traced} {
				for _, p := range r.Problems {
					t.Errorf("incorrect: %s", p)
				}
				if r.Attempted < 1 || r.Failed != 0 {
					t.Errorf("attempted %d, failed %d", r.Attempted, r.Failed)
				}
				for _, m := range driverMetrics {
					if v, ok := r.Values[w.driver[m.Name]]; !ok || !(v > 0) || math.IsInf(v, 0) || m.Unit == "" {
						t.Errorf("driver metric %s = %s = %v (unit %q)", m.Name, w.driver[m.Name], v, m.Unit)
					}
				}
				for _, name := range namedOn[w.name] {
					m := findMetric(name)
					if v, ok := r.Values[name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || m.Unit == "" || r.Samples[name] < 1 {
						t.Errorf("end-to-end %s = %v (unit %q, n=%d)", name, v, m.Unit, r.Samples[name])
					}
				}
			}
			if plain.Digest != traced.Digest {
				t.Errorf("traced run's digest %016x differs from the untraced run's %016x", traced.Digest, plain.Digest)
			}
			if plain.PerLayer != nil {
				t.Error("an untraced run reported per-layer metrics")
			}
			busy := 0
			for _, m := range perLayer {
				v, ok := traced.PerLayer[m.Name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || m.Unit == "" {
					t.Errorf("per-layer %s = %v (unit %q)", m.Name, v, m.Unit)
				}
				if v > 0 {
					busy++
				}
			}
			if busy < 8 {
				t.Errorf("only %d per-layer metrics are non-zero", busy)
			}
			if len(traced.PerLayer) != len(perLayer) {
				t.Errorf("traced run reports %d per-layer metrics, the table names %d", len(traced.PerLayer), len(perLayer))
			}

			buf, err := os.ReadFile(h.traceDir + "/trace_" + w.name + ".json")
			if err != nil {
				t.Fatal(err)
			}
			var file struct{ Spans []span }
			if err := json.Unmarshal(buf, &file); err != nil {
				t.Fatal(err)
			}
			if len(file.Spans) == 0 {
				t.Fatal("empty trace")
			}
			for i, s := range file.Spans {
				if s.Parent < -1 || s.Parent >= len(file.Spans) || s.Parent == i {
					t.Fatalf("span %d (%s): parent %d does not resolve", i, s.Name, s.Parent)
				}
				if s.Self < 0 || s.End < s.Start {
					t.Fatalf("span %d (%s): self %d ns, %d..%d", i, s.Name, s.Self, s.Start, s.End)
				}
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the harness's tables equal.
func TestBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var file struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, harness default %d", file.RunSeconds, defaultSeconds)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the harness", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %q, harness %q (or their reasons differ)", i, file.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the file, %d in the harness", kind, len(got), len(want))
		}
		for i, m := range want {
			if got[i] != (metric{m.Name, m.Unit, m.Better, m.Bound}) || m.Abs {
				t.Errorf("%s %d: file has %+v, harness %+v", kind, i, got[i], m)
			}
		}
	}
	same("end_to_end", file.EndToEnd, driverMetrics)
	same("per_layer", file.PerLayer, perLayer)
}

func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0}, {19, 0}, {20, 0.50}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {12000, 0.99},
	} {
		if got := tailRule(c.n); got != c.want {
			t.Errorf("tailRule(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	few := []float64{3, 9, 1}
	if v := tail(few); v != 9 {
		t.Errorf("tail of three samples = %v, want the slowest", v)
	}
	many := make([]float64, 1000)
	for i := range many {
		many[i] = float64(i + 1)
	}
	if v := tail(many); v != 990 {
		t.Errorf("tail of 1..1000 = %v, want 990 (p99)", v)
	}
}

// TestQuartiles pins the quartile rule to Python's
// statistics.quantiles(v, n=4), which the driver uses.
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 3})
	if q1 != 0.5 || q3 != 3.5 {
		t.Errorf("quartiles of {1, 3} = %v, %v; want 0.5, 3.5", q1, q3)
	}
	q1, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of {1, 2, 4} = %v, %v; want 1, 4", q1, q3)
	}
}

func TestVerdicts(t *testing.T) {
	lower := metricDef{Name: "job_s", Unit: "s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "live_qps", Unit: "1/s", Better: "higher", Bound: 0.10}
	f1 := metricDef{Name: "link_f1", Unit: "ratio", Better: "higher", Bound: 0.002, Abs: true}
	failed := metricDef{Name: "failed_ratio", Unit: "ratio", Better: "lower", Bound: 0, Abs: true}
	steady := func(v float64) []float64 { return []float64{v * 0.99, v, v * 1.01} }
	same := func(v float64) []float64 { return []float64{v, v, v} }
	for _, c := range []struct {
		m        metricDef
		old, new []float64
		want     string
	}{
		{lower, steady(100), steady(105), "within-bound"},
		{lower, steady(100), steady(120), "worse"},
		{lower, steady(100), steady(80), "better"},
		{higher, steady(100), steady(80), "worse"},
		{higher, steady(100), steady(120), "better"},
		{higher, steady(100), steady(95), "within-bound"},
		{lower, []float64{70, 100, 130}, steady(150), "unresolved"},
		{lower, steady(100), []float64{100, 150, 200}, "unresolved"},
		{lower, []float64{100}, []float64{111}, "worse"},
		{f1, same(0.777), same(0.776), "within-bound"},
		{f1, same(0.777), same(0.774), "worse"},
		{f1, same(0.777), same(0.780), "better"},
		{f1, same(0.777), []float64{0.777, 0.70, 0.75}, "unresolved"},
		{failed, same(0), same(0), "within-bound"},
		{failed, same(0), same(0.001), "worse"},
	} {
		if got := verdict(c.m, c.old, c.new); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.m.Name, c.old, c.new, got, c.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a: covered once
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past the parent: clipped
	}
	spans := tr.finish()
	if spans[0].Self != 100-40-10 {
		t.Errorf("parent self time %d, want 50", spans[0].Self)
	}
	if spans[1].Self != 20 || spans[2].Self != 30 {
		t.Errorf("leaf self times %d, %d; want their durations", spans[1].Self, spans[2].Self)
	}
}

func TestPerOpCost(t *testing.T) {
	var epochs []epochCost
	for u := 1.0; u <= 5; u++ {
		for d := 0.0; d <= 3; d++ {
			epochs = append(epochs, epochCost{upserts: u, deletes: d, seconds: u*20e-6 + d*3e-3})
		}
	}
	up, del := perOpCost(epochs)
	if math.Abs(up-20) > 1e-6 || math.Abs(del-3000) > 1e-6 {
		t.Errorf("per-op cost %v µs, %v µs; want 20, 3000", up, del)
	}
}
