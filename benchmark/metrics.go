package main

import (
	"math"
	"sort"
)

// metricDef names one metric. BENCHMARK.json repeats the driver and
// per-layer tables; the smoke test fails when they drift apart.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is how much worse a median may get before compare calls it a
	// regression: a share of the old median, or a difference in the
	// metric's own unit when Abs is set. Per-layer metrics have none.
	Bound float64
	Abs   bool
}

// endToEnd is what a user of the system sees, under the issue's thirteen
// names. A workload reports the ones that exist on it; -out records them
// and -compare judges them. The bounds are the issue's widened to hold
// the spread of seven runs of one seed on the shared two-core sandbox
// (README.md has the measurements): an A/A compare must resolve every row.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.30},
	{Name: "job_s", Unit: "s", Better: "lower", Bound: 0.15},
	{Name: "peak_heap_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "link_f1", Unit: "ratio", Better: "higher", Bound: 0.002, Abs: true},
	{Name: "deltas_per_s", Unit: "1/s", Better: "higher", Bound: 0.15},
	{Name: "publish_full_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "query_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "live_query_p99_ms", Unit: "ms", Better: "lower", Bound: 0.30},
	{Name: "live_qps", Unit: "1/s", Better: "higher", Bound: 0.15},
	{Name: "freshness_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "search_hit_ratio", Unit: "ratio", Better: "higher", Bound: 0.002, Abs: true},
	{Name: "failed_ratio", Unit: "ratio", Better: "lower", Bound: 0, Abs: true},
}

// driverMetrics are the six names of the driver's result line. The driver
// wants every metric from every workload and none that can be 0, so the
// names are generic; each workload's driver table says which of its
// values a name carries. Every bound is the widest the driver allows: it
// also has to hold the spread of ten runs on ten seeds.
var driverMetrics = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "peak_heap_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "quality_ratio", Unit: "ratio", Better: "higher", Bound: 0.20},
}

// findMetric returns the end-to-end metric of this name.
func findMetric(name string) metricDef {
	for _, m := range endToEnd {
		if m.Name == name {
			return m
		}
	}
	panic("benchmark: no end-to-end metric " + name)
}

// perLayer lists the traced run's metrics, one group per layer. A layer
// that does no work on a workload reports 0 there, which is the
// "predicted no change" side of every optimisation of that layer.
var perLayer = []metricDef{
	{Name: "source.ingest_s", Unit: "s", Better: "lower"},
	{Name: "source.records", Unit: "count", Better: "higher"},
	{Name: "source.retries", Unit: "count", Better: "lower"},
	{Name: "source.poll_wait_s", Unit: "s", Better: "lower"},
	{Name: "source.generator_late_ms", Unit: "ms", Better: "lower"},

	{Name: "blocking.build_s", Unit: "s", Better: "lower"},
	{Name: "blocking.candidates", Unit: "count", Better: "lower"},
	{Name: "blocking.useful_ratio", Unit: "ratio", Better: "higher"},
	{Name: "blocking.spill_runs", Unit: "count", Better: "lower"},

	{Name: "linkage.match_s", Unit: "s", Better: "lower"},
	{Name: "linkage.comparisons", Unit: "count", Better: "lower"},
	{Name: "linkage.comparisons_per_s", Unit: "1/s", Better: "higher"},
	{Name: "linkage.match_ratio", Unit: "ratio", Better: "higher"},
	{Name: "linkage.cluster_s", Unit: "s", Better: "lower"},
	{Name: "linkage.clusters", Unit: "count", Better: "higher"},
	{Name: "linkage.incr_apply_s", Unit: "s", Better: "lower"},
	{Name: "linkage.incr_upsert_us", Unit: "us", Better: "lower"},
	{Name: "linkage.incr_delete_us", Unit: "us", Better: "lower"},
	{Name: "linkage.incr_comparisons", Unit: "count", Better: "lower"},
	{Name: "linkage.tombstones", Unit: "count", Better: "lower"},

	{Name: "schema.align_s", Unit: "s", Better: "lower"},
	{Name: "schema.transforms_s", Unit: "s", Better: "lower"},
	{Name: "schema.normalize_s", Unit: "s", Better: "lower"},
	{Name: "schema.mediated_attrs", Unit: "count", Better: "higher"},

	{Name: "fusion.claims_s", Unit: "s", Better: "lower"},
	{Name: "fusion.fuse_s", Unit: "s", Better: "lower"},
	{Name: "fusion.claims", Unit: "count", Better: "higher"},
	{Name: "fusion.items", Unit: "count", Better: "higher"},
	{Name: "fusion.online_s", Unit: "s", Better: "lower"},
	{Name: "fusion.online_probe_ratio", Unit: "ratio", Better: "lower"},

	{Name: "core.pipeline_gap_pct", Unit: "%", Better: "lower"},
	{Name: "core.snapshot_build_s", Unit: "s", Better: "lower"},
	{Name: "core.snapshot_entities", Unit: "count", Better: "higher"},
	{Name: "core.publish_s", Unit: "s", Better: "lower"},
	{Name: "core.publish_claims_share", Unit: "ratio", Better: "lower"},
	{Name: "core.publish_fusion_share", Unit: "ratio", Better: "lower"},
	{Name: "core.publish_snapshot_share", Unit: "ratio", Better: "lower"},
	{Name: "core.publishes", Unit: "count", Better: "higher"},
	{Name: "core.compact_s", Unit: "s", Better: "lower"},
	{Name: "core.compactions", Unit: "count", Better: "lower"},
	{Name: "core.compacted_slots", Unit: "count", Better: "higher"},
	{Name: "core.state_save_s", Unit: "s", Better: "lower"},
	{Name: "core.state_load_s", Unit: "s", Better: "lower"},
	{Name: "core.state_bytes", Unit: "B", Better: "lower"},
	{Name: "core.state_bytes_per_record", Unit: "B", Better: "lower"},
	{Name: "core.search_us", Unit: "us", Better: "lower"},
	{Name: "core.resolve_us", Unit: "us", Better: "lower"},
	{Name: "core.similar_us", Unit: "us", Better: "lower"},
	{Name: "core.entity_us", Unit: "us", Better: "lower"},

	{Name: "serve.search_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.resolve_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.entity_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.similar_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.http_overhead_us", Unit: "us", Better: "lower"},
	{Name: "serve.quiet_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.live_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.live_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.freshness_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.swaps", Unit: "count", Better: "higher"},
	{Name: "serve.stale_id_404", Unit: "count", Better: "lower"},

	{Name: "runtime.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
}

// sorted returns a sorted copy.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile is the nearest-rank quantile of v (0 for no samples).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(v []float64) float64 {
	s := sorted(v)
	switch n := len(s); {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// tailPercentiles are the candidates of the tail rule, ascending.
var tailPercentiles = []float64{0.50, 0.90, 0.95, 0.99}

// tailRule picks the highest candidate percentile that still has at
// least ten of the n samples beyond it; 0 when none does.
func tailRule(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if beyond := n - int(math.Ceil(p*float64(n))); beyond >= 10 {
			best = p
		}
	}
	return best
}

// tail reports a timing's tail: the percentile tailRule picks, or the
// slowest sample when there are too few for any percentile to hold.
func tail(v []float64) float64 {
	if p := tailRule(len(v)); p > 0 {
		return quantile(v, p)
	}
	return quantile(v, 1)
}

// quartiles follows Python's statistics.quantiles(v, n=4) (exclusive
// method), the rule the driver applies to the same values.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	at := func(k int) float64 {
		n := len(s)
		pos := float64(k) * float64(n+1) / 4
		j := min(max(int(pos), 1), n-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1]) // extrapolates when j was clamped, as Python does
	}
	return at(1), at(3)
}
