package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/eval"
	"repro/internal/fusion"
	"repro/internal/source"
)

// Committed input size and cadence of stream_churn (see BENCHMARK.json).
// A drain's cost grows faster than its corpus, since every publish
// rebuilds the whole view: 4500 records is the most whose warm-up drain
// and four timed ones fit the 35 s the driver's time cap leaves a run (the
// issue's 13k records take over a minute for one drain).
const (
	streamChurnRecords = 4500
	streamChurnSources = 20
	streamChurnUpdates = 0.10
	streamChurnDeletes = 0.05
	drainedPublishes   = 7 // full publishes timed at the drained corpus
	// publishTail is fixed: a window's few dozen full publishes are too few
	// for tailRule to go beyond the median, and enough for a coarse p90.
	publishTail = 0.90
)

var streamChurnConfig = core.StreamConfig{
	EpochSize: 10, PublishEvery: 5, CompactRatio: 0.02, SaveEvery: 10, Workers: workers,
}

var streamChurn = workload{
	name: "stream_churn",
	why:  "Velocity: 4.5k records as inserts, 10% updates, 5% deletes; incremental upsert/delete, online fusion, many small snapshot rebuilds, state codec; O(delta)-publish and delete-recluster must show here",
	loop: "closed loop, whole drains of one delta log one after another, 1 warm-up drain then timed drains for the window (about 4); 1 driver goroutine (plus the streamer's poller)",
	driver: map[string]string{
		"setup_s": "setup_s", "op_p50_ms": "publish_full_ms", "op_tail_ms": "publish_full_p90_ms",
		"work_per_s": "deltas_per_s", "peak_heap_mb": "peak_heap_mb", "quality_ratio": "link_f1",
	},
	overhead:     "deltas_per_s",
	qualityFloor: 0.55,
	quality42:    0.7216,
	run:          runStreamChurn,
}

// epochCost is one ApplyDeltas call: its op counts and its time.
type epochCost struct{ upserts, deletes, seconds float64 }

// perOpCost attributes epoch times to upserts and deletes by least
// squares over seconds ≈ a·upserts + b·deletes; it returns µs per op.
func perOpCost(epochs []epochCost) (upsertUs, deleteUs float64) {
	var suu, sud, sdd, sut, sdt float64
	for _, e := range epochs {
		suu += e.upserts * e.upserts
		sud += e.upserts * e.deletes
		sdd += e.deletes * e.deletes
		sut += e.upserts * e.seconds
		sdt += e.deletes * e.seconds
	}
	det := suu*sdd - sud*sud
	if det == 0 {
		if suu > 0 {
			return 1e6 * sut / suu, 0
		}
		return 0, 0
	}
	a, b := (sut*sdd-sdt*sud)/det, (sdt*suu-sut*sud)/det
	switch { // a cost is not negative: fit the other op alone
	case a < 0:
		a, b = 0, sdt/sdd
	case b < 0:
		a, b = sut/suu, 0
	}
	return 1e6 * a, 1e6 * b
}

func runStreamChurn(e *env, r *result) error {
	ctx := context.Background()
	began := time.Now()
	web := wideWebOfRecords(e.seed, e.size(streamChurnRecords, 150), streamChurnSources)
	fleet, totals, _ := source.ChurnSources(web.Dataset, source.ChurnConfig{
		Seed: e.seed, UpdateRate: streamChurnUpdates, DeleteRate: streamChurnDeletes,
	})
	deltas := 0
	for _, n := range totals {
		deltas += n
	}
	r.Sizes = fmt.Sprintf("%d entities, %d sources, %d deltas (%.0f%% updates, %.0f%% deletes)",
		len(web.World.Entities), streamChurnSources, deltas, 100*streamChurnUpdates, 100*streamChurnDeletes)

	cfg := streamChurnConfig
	cfg.StatePath = filepath.Join(e.tmpDir, "stream.state")

	var perSec, publishMs, heapMB []float64
	heap := startHeapWatch()
	defer heap.close()
	var dt *drainTrace
	if e.tr != nil {
		dt = &drainTrace{tr: e.tr}
	}
	// iteration drains the whole log into a fresh stream and then, at the
	// drained corpus, times full publishes, one save and one restore.
	// Iteration 0 is the warm-up and books no timing.
	iteration := func(op int) error {
		st, err := core.NewStream(cfg, nil)
		if err != nil {
			return err
		}
		root := e.tr.begin("drain", -1, op)
		defer e.tr.end(root)
		r.Attempted += deltas
		heap.takeMB()
		t0, shadow := time.Now(), time.Duration(0)
		if dt == nil {
			err = st.RunDeltas(ctx, fleet, totals)
		} else {
			shadow, err = dt.drain(ctx, root, op, st, cfg, fleet, totals)
		}
		if op > 0 {
			perSec = append(perSec, float64(deltas)/(time.Since(t0)-shadow).Seconds())
			heapMB = append(heapMB, heap.takeMB())
		}
		if err != nil {
			return err
		}

		var snap *core.Snapshot
		for i := 0; i < drainedPublishes; i++ {
			r.Attempted++
			sp := e.tr.begin("core.publish_full", root, op)
			t0 := time.Now()
			snap, err = st.Publish(ctx)
			if op > 0 {
				publishMs = append(publishMs, float64(time.Since(t0))/1e6)
			}
			e.tr.end(sp)
			if err != nil {
				return err
			}
		}
		r.Attempted++
		sp := e.tr.begin("core.state_save", root, op)
		err = st.Save(cfg.StatePath)
		e.tr.end(sp)
		if err != nil {
			return err
		}
		r.Attempted++
		sp = e.tr.begin("core.state_load", root, op)
		restored, err := core.LoadStream(cfg.StatePath, cfg, nil)
		if err == nil {
			_, err = restored.Rebuild(ctx)
		}
		e.tr.end(sp)
		if err != nil {
			return err
		}

		r.sameDigest(snapshotDigest(snap))
		if op == 0 {
			live := st.Dataset()
			r.set("link_f1", eval.Clusters(st.Clusters(), live.GroundTruthClusters()).F1, 1)
			if dt != nil {
				if fi, err := os.Stat(cfg.StatePath); err == nil {
					r.PerLayer["core.state_bytes"] = float64(fi.Size())
					r.PerLayer["core.state_bytes_per_record"] = float64(fi.Size()) / math.Max(1, float64(live.NumRecords()))
				}
				r.PerLayer["linkage.incr_comparisons"] = float64(st.Comparisons())
				r.PerLayer["core.compactions"] = float64(st.Compactions())
				r.PerLayer["core.snapshot_entities"] = float64(snap.Len())
			}
		}
		return nil
	}

	if err := iteration(0); err != nil {
		r.fail(err)
		return nil
	}
	r.set("setup_s", time.Since(began).Seconds(), 1)
	if dt != nil {
		*dt = drainTrace{tr: e.tr} // the counts below are of the timed drains
	}
	mark := markMem(e.tr)
	for start := time.Now(); e.windowOpen(start, len(perSec)); {
		if err := iteration(1 + len(perSec)); err != nil {
			r.fail(err)
			return nil
		}
	}
	r.set("publish_full_ms", median(publishMs), len(publishMs))
	r.set("publish_full_p90_ms", quantile(publishMs, publishTail), len(publishMs))
	r.set("deltas_per_s", median(perSec), len(perSec))
	r.set("peak_heap_mb", median(heapMB), len(heapMB))

	if dt != nil {
		spans := timedSpans(e.tr)
		drains := float64(len(perSec))
		r.runtimeLayer(mark.per(drains))
		perDrain := func(spanName string) float64 { return total(spans, spanName) / drains }
		l := r.PerLayer
		l["source.records"] = float64(deltas)
		l["source.poll_wait_s"] = perDrain("source.poll_wait")
		l["linkage.incr_apply_s"] = perDrain("linkage.incr_apply")
		l["linkage.incr_upsert_us"], l["linkage.incr_delete_us"] = perOpCost(dt.epochs)
		l["linkage.tombstones"] = dt.tombstones / drains
		l["fusion.claims"] = dt.claims / drains
		l["fusion.items"] = dt.items / drains
		l["fusion.online_probe_ratio"] = dt.probes / math.Max(1, dt.claims)
		l["core.publishes"] = dt.publishes / drains
		l["core.publish_s"] = perDrain("core.publish")
		l["core.compact_s"] = perDrain("core.compact")
		l["core.compacted_slots"] = dt.compactedSlots / drains
		l["core.state_save_s"] = perDrain("core.state_save")
		l["core.state_load_s"] = perDrain("core.state_load")
		// The shadow-timed parts of the publishes. Publish also feeds the
		// fused outcome back into the source accuracies, which no public
		// call exposes: the three shares leave that remainder out and so
		// sum to less than 1.
		l["fusion.claims_s"] = perDrain("shadow.claims")
		l["fusion.online_s"] = perDrain("shadow.fusion")
		l["core.snapshot_build_s"] = perDrain("shadow.snapshot")
		if p := l["core.publish_s"]; p > 0 {
			l["core.publish_claims_share"] = l["fusion.claims_s"] / p
			l["core.publish_fusion_share"] = l["fusion.online_s"] / p
			l["core.publish_snapshot_share"] = l["core.snapshot_build_s"] / p
			if shadow := l["fusion.claims_s"] + l["fusion.online_s"] + l["core.snapshot_build_s"]; shadow > 1.15*p {
				r.Warnings = append(r.Warnings, fmt.Sprintf(
					"shadow-timed publish parts sum to %.3fs, over 15%% more than the %.3fs of the publish spans", shadow, p))
			}
		}
	}
	return nil
}

// drainTrace is what traced drains observe beyond their spans, summed
// over the drains of a run.
type drainTrace struct {
	tr     *tracer
	epochs []epochCost
	// Counts: publishes made, posting slots reclaimed, tombstones live at
	// the end of the log, and over the shadow-timed publishes the claims,
	// items and sources consulted.
	publishes, compactedSlots, tombstones, claims, items, probes float64
}

// drain is RunDeltas spelled out with the Stream's public methods, so
// the harness can put a span around each layer call: the same streamer,
// the same publish, compaction and save cadence. After each publish it
// times the publish's three parts again over the same state (shadow
// timing), since Publish itself exposes no breakdown; the time that took
// is returned so the drain's own time can be told apart from it.
func (dt *drainTrace) drain(ctx context.Context, root, op int, st *core.Stream, cfg core.StreamConfig,
	fleet []source.DeltaSource, totals map[string]int) (shadow time.Duration, err error) {
	tr := dt.tr
	metas := make(map[string]*data.Source, len(fleet))
	for _, src := range fleet {
		metas[src.Meta().ID] = src.Meta()
	}
	str, err := source.NewDeltaStreamer(ctx, fleet, source.StreamConfig{EpochSize: cfg.EpochSize, Totals: totals})
	if err != nil {
		return 0, err
	}
	defer str.Close()

	publish := func() error {
		sp := tr.begin("core.publish", root, op)
		_, err := st.Publish(ctx)
		tr.end(sp)
		if err != nil {
			return err
		}
		dt.publishes++

		t0 := time.Now()
		defer func() { shadow += time.Since(t0) }()
		d, clusters := st.Dataset(), st.Clusters()
		var attrs []string
		for _, ac := range d.Attributes() {
			attrs = append(attrs, ac.Attr)
		}
		sort.Strings(attrs)
		sp = tr.begin("shadow.claims", root, op)
		claims := data.ClaimsFromClusters(d, clusters, attrs)
		tr.end(sp)
		sp = tr.begin("shadow.fusion", root, op)
		res, err := fusion.Online{Accuracy: st.Accuracy(), N: cfg.FusionN, Workers: cfg.Workers, Ctx: ctx}.FuseOnline(claims)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("shadow.snapshot", root, op)
		_, err = core.BuildSnapshot(&core.Report{Normalized: d, Clusters: clusters, Fusion: &res.Result})
		tr.end(sp)
		dt.claims += float64(claims.Len())
		dt.items += float64(claims.NumItems())
		for _, n := range res.Probes {
			dt.probes += float64(n)
		}
		return err
	}
	compact := func() {
		if st.GarbageRatio() >= cfg.CompactRatio {
			sp := tr.begin("core.compact", root, op)
			slots, _, _ := st.Compact()
			tr.end(sp)
			dt.compactedSlots += float64(slots)
		}
	}
	save := func() error {
		sp := tr.begin("core.state_save", root, op)
		defer tr.end(sp)
		return st.Save(cfg.StatePath)
	}

	dirty := false
	for {
		sp := tr.begin("source.poll_wait", root, op)
		ep, ok := <-str.C
		tr.end(sp)
		if !ok {
			break
		}
		cost := epochCost{}
		for _, dl := range ep.Deltas {
			if dl.Op == source.OpDelete {
				cost.deletes++
			} else {
				cost.upserts++
			}
		}
		sp = tr.begin("linkage.incr_apply", root, op)
		err := st.ApplyDeltas(metas, ep)
		cost.seconds = tr.end(sp).Seconds()
		if err != nil {
			return shadow, err
		}
		dt.epochs = append(dt.epochs, cost)
		dirty = true
		if st.Epoch()%cfg.PublishEvery == 0 {
			if err := publish(); err != nil {
				return shadow, err
			}
			dirty = false
		}
		compact()
		if st.Epoch()%cfg.SaveEvery == 0 {
			if err := save(); err != nil {
				return shadow, err
			}
		}
	}
	if err := str.Err(); err != nil {
		return shadow, err
	}
	dt.tombstones += float64(st.Tombstones())
	if dirty {
		if err := publish(); err != nil {
			return shadow, err
		}
	}
	compact()
	return shadow, save()
}
