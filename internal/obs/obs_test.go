package obs

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 0 {
		t.Fatalf("nil counter value = %d, want 0", got)
	}
	g := r.Gauge("x")
	g.Set(1.5)
	if got := g.Value(); got != 0 {
		t.Fatalf("nil gauge value = %v, want 0", got)
	}
	tm := r.Timer("x")
	tm.Observe(time.Second)
	ran := false
	tm.Time(func() { ran = true })
	if !ran {
		t.Fatal("nil timer Time did not run f")
	}
	if tm.Count() != 0 {
		t.Fatal("nil timer recorded observations")
	}
	d := r.Dist("x")
	d.Observe(2.5)
	if d.Count() != 0 || d.Last() != 0 {
		t.Fatal("nil dist recorded observations")
	}
	sp := r.StartSpan("stage")
	if sp == nil {
		t.Fatal("StartSpan on nil registry returned nil — detached spans must stay live")
	}
	child := sp.Child("sub")
	child.End()
	sp.End()
	if sp.Name() != "stage" || len(sp.Children()) != 1 {
		t.Fatal("detached span did not record its child")
	}
	var nilSpan *Span
	if nilSpan.Child("x") != nil || nilSpan.End() != 0 || nilSpan.Name() != "" || nilSpan.Duration() != 0 || nilSpan.Children() != nil {
		t.Fatal("nil span methods are not no-ops")
	}
	snap := r.Snapshot()
	if snap == nil || len(snap.Counters) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
	if out := snap.Stable().Text(); out != "" {
		t.Fatalf("empty stable snapshot rendered %q", out)
	}
}

func TestNilHandlesZeroAlloc(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	d := r.Dist("x")
	tm := r.Timer("x")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		c.Inc()
		g.Set(2)
		d.Observe(3)
		tm.Observe(time.Millisecond)
		_ = OrDefault(nil)
		// Handles resolved by name on every call, as Stream.Publish does
		// for its stream.publish.* breakdown.
		r.Timer("stream.publish.fuse").Observe(time.Millisecond)
		r.Counter("stream.views_rebuilt").Add(3)
	})
	if allocs != 0 {
		t.Fatalf("nil-handle hot path allocates %v times per run, want 0", allocs)
	}
}

func TestCounterGaugeTimerDist(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("blocking.pairs")
	c.Add(5)
	c.Inc()
	if got := c.Value(); got != 6 {
		t.Fatalf("counter = %d, want 6", got)
	}
	if r.Counter("blocking.pairs") != c {
		t.Fatal("Counter did not return the same handle for the same name")
	}
	g := r.Gauge("blocking.ratio")
	g.Set(0.25)
	if got := g.Value(); got != 0.25 {
		t.Fatalf("gauge = %v, want 0.25", got)
	}
	tm := r.Timer("parallel.busy")
	tm.Observe(-time.Second) // clamps to 0
	tm.Observe(3 * time.Millisecond)
	tm.Time(func() {})
	if got := tm.Count(); got != 3 {
		t.Fatalf("timer count = %d, want 3", got)
	}
	d := r.Dist("fusion.delta")
	d.Observe(0.5)
	d.Observe(0.125)
	if d.Count() != 2 || d.Last() != 0.125 {
		t.Fatalf("dist count=%d last=%v, want 2, 0.125", d.Count(), d.Last())
	}
}

func TestSpanTree(t *testing.T) {
	r := NewRegistry()
	root := r.StartSpan("pipeline")
	a := root.Child("blocking")
	time.Sleep(time.Millisecond)
	a.End()
	b := root.Child("matching")
	b.End()
	root.End()
	if a.End() != a.Duration() {
		t.Fatal("second End changed the recorded duration")
	}
	if a.Duration() <= 0 {
		t.Fatal("ended span has non-positive duration")
	}
	kids := root.Children()
	if len(kids) != 2 || kids[0].Name() != "blocking" || kids[1].Name() != "matching" {
		t.Fatalf("children out of creation order: %v, %v", kids[0].Name(), kids[1].Name())
	}
	snap := r.Snapshot()
	if len(snap.Spans) != 3 {
		t.Fatalf("flattened spans = %d, want 3", len(snap.Spans))
	}
	if snap.Spans[1].Path != "pipeline/blocking" || snap.Spans[1].Depth != 1 {
		t.Fatalf("span path/depth = %q/%d", snap.Spans[1].Path, snap.Spans[1].Depth)
	}
}

func TestDefaultRegistry(t *testing.T) {
	if Default() != nil {
		t.Fatal("default registry unexpectedly set at test start")
	}
	r := NewRegistry()
	SetDefault(r)
	defer SetDefault(nil)
	if Default() != r || OrDefault(nil) != r {
		t.Fatal("SetDefault not visible through Default/OrDefault")
	}
	other := NewRegistry()
	if OrDefault(other) != other {
		t.Fatal("OrDefault ignored the explicit registry")
	}
}

// populate builds a registry whose deterministic content is identical
// across calls; the "parallel." entries and timers simulate the
// run-dependent parts that Stable must strip.
func populate(variant int) *Registry {
	r := NewRegistry()
	r.Counter("matching.comparisons").Add(100)
	r.Counter("blocking.pairs_emitted").Add(40)
	r.Counter("fusion.em_iterations").Add(7)
	r.Gauge("blocking.dedup_ratio").Set(0.4)
	r.Dist("fusion.em_delta").Observe(0.5)
	r.Dist("fusion.em_delta").Observe(0.001)
	// Run-dependent parts, different per variant:
	r.Counter("parallel.chunks").Add(int64(10 * (variant + 1)))
	r.Timer("parallel.worker_busy").Observe(time.Duration(variant+1) * time.Millisecond)
	root := r.StartSpan("pipeline")
	root.Child("blocking").End()
	root.Child("matching").End()
	root.End()
	return r
}

func TestStableSnapshotDeterministic(t *testing.T) {
	var prevText string
	var prevJSON []byte
	for variant := 0; variant < 3; variant++ {
		snap := populate(variant).Snapshot().Stable()
		text := snap.Text()
		js, err := snap.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if variant > 0 {
			if text != prevText {
				t.Fatalf("stable text differs between variants:\n%s\nvs\n%s", prevText, text)
			}
			if !bytes.Equal(js, prevJSON) {
				t.Fatalf("stable JSON differs between variants:\n%s\nvs\n%s", prevJSON, js)
			}
		}
		prevText, prevJSON = text, js
	}
	if strings.Contains(prevText, "parallel.") {
		t.Fatalf("stable snapshot leaked the parallel namespace:\n%s", prevText)
	}
	if strings.Contains(prevText, "timers:") {
		t.Fatalf("stable snapshot leaked timers:\n%s", prevText)
	}
	for _, want := range []string{"matching.comparisons", "blocking.dedup_ratio", "fusion.em_delta", "pipeline", "blocking"} {
		if !strings.Contains(prevText, want) {
			t.Fatalf("stable text missing %q:\n%s", want, prevText)
		}
	}
}

func TestSnapshotSorted(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"z.last", "a.first", "m.middle"} {
		r.Counter(name).Inc()
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 3 ||
		snap.Counters[0].Name != "a.first" ||
		snap.Counters[1].Name != "m.middle" ||
		snap.Counters[2].Name != "z.last" {
		t.Fatalf("counters not sorted: %+v", snap.Counters)
	}
}

func TestFullSnapshotHasTimers(t *testing.T) {
	r := populate(0)
	snap := r.Snapshot()
	if len(snap.Timers) != 1 || snap.Timers[0].Name != "parallel.worker_busy" {
		t.Fatalf("full snapshot timers = %+v", snap.Timers)
	}
	if len(snap.Timers[0].Buckets) == 0 {
		t.Fatal("timer histogram has no buckets after an observation")
	}
	text := snap.Text()
	if !strings.Contains(text, "timers:") || !strings.Contains(text, "parallel.chunks") {
		t.Fatalf("full text view missing run-dependent sections:\n%s", text)
	}
}

func TestServeDebug(t *testing.T) {
	r := populate(0)
	srv, addr, err := ServeDebug("127.0.0.1:0", r)
	if err != nil {
		t.Skipf("cannot listen: %v", err)
	}
	defer srv.Close()
	base := "http://" + addr.String()
	for path, want := range map[string]string{
		"/metrics":      "matching.comparisons",
		"/metrics.json": "\"matching.comparisons\"",
		"/debug/vars":   "bdi_metrics",
	} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if !strings.Contains(string(body), want) {
			t.Fatalf("GET %s: body missing %q:\n%s", path, want, body)
		}
	}
}

func BenchmarkObsSnapshot(b *testing.B) {
	r := populate(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Snapshot().Stable().Text()
	}
}

func BenchmarkNilCounterAdd(b *testing.B) {
	var r *Registry
	c := r.Counter("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}
