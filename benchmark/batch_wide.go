package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/source"
)

// Committed input size of batch_wide (see BENCHMARK.json): the issue's,
// about 6000 entities.
const (
	batchWideRecords = 26_700
	batchWideSources = 20
)

var batchWide = workload{
	name:         "batch_wide",
	why:          "Variety: full batch path (ingest, link, align, ACCU fuse, snapshot) over 20 dirty sources sized to 26.7k records; schema and batch fusion do most of the work here and none in link_scale",
	loop:         "closed loop, one job at a time, 1 warm-up job then timed jobs for the window (about 5); 1 driver goroutine",
	driver:       jobDriver,
	overhead:     "job_s",
	qualityFloor: 0.40,
	quality42:    0.6248,
	run:          runBatchWide,
}

// wideWeb generates the heterogeneous web every non-scale workload is
// built over: dirty titles, identifiers on most sources, per-source
// dialects, a long tail of small sources.
func wideWeb(seed int64, entities, sources int) *datagen.Web {
	world := datagen.NewWorld(datagen.WorldConfig{Seed: seed, NumEntities: entities})
	return datagen.BuildWeb(world, datagen.SourceConfig{
		Seed: seed, NumSources: sources, DirtLevel: 1, IdentifierRate: .9,
		Heterogeneity: .5, HeadFraction: .4, TailCoverage: .3,
	})
}

// wideWebOfRecords is wideWeb sized by records, for the workloads whose
// cost follows the record count. How many records a world of n entities
// yields depends on the coverage each source draws from the seed (about
// ±7% between seeds), so a second pass resizes the world to land near
// the wanted count: the seed varies what the input is, not how big.
func wideWebOfRecords(seed int64, records, sources int) *datagen.Web {
	entities := max(20, records/4)
	web := wideWeb(seed, entities, sources)
	if got := web.Dataset.NumRecords(); got != records {
		entities = max(20, int(math.Round(float64(entities)*float64(records)/float64(got))))
		web = wideWeb(seed, entities, sources)
	}
	return web
}

func runBatchWide(e *env, r *result) error {
	ctx := context.Background()
	began := time.Now()
	web := wideWebOfRecords(e.seed, e.size(batchWideRecords, 150), batchWideSources)
	records := web.Dataset.NumRecords()
	r.Sizes = fmt.Sprintf("%d entities, %d sources, %d records", len(web.World.Entities), batchWideSources, records)

	var gaps []float64 // per traced job, how far the pipeline's stages miss the span around RunCtx
	job := func(op int) error {
		root := e.tr.begin("job", -1, op)
		defer e.tr.end(root)

		sp := e.tr.begin("source.ingest", root, op)
		ds, irep, err := source.NewIngestor(source.IngestConfig{Workers: workers}).Ingest(ctx, source.FromWeb(web))
		e.tr.end(sp)
		if err != nil {
			return err
		}

		cfg := core.Config{Fuser: "accu", Workers: workers}
		if e.tr != nil {
			cfg.Obs = obs.NewRegistry()
		}
		sp = e.tr.begin("core.pipeline", root, op)
		rep, err := core.New(cfg).RunCtx(ctx, ds)
		outer := e.tr.end(sp)
		if err != nil {
			return err
		}
		if e.tr != nil {
			gaps = append(gaps, pipelineChildren(e.tr, sp, outer, rep, cfg.Obs.Snapshot()))
		}

		sp = e.tr.begin("core.snapshot_build", root, op)
		snap, err := rep.Snapshot()
		e.tr.end(sp)
		if err != nil {
			return err
		}

		r.sameDigest(snapshotDigest(snap))
		if op == 0 {
			r.set("link_f1", eval.Clusters(rep.Clusters, ds.GroundTruthClusters()).F1, 1)
		}
		if l := r.PerLayer; l != nil { // work counts: they repeat exactly from job to job
			l["source.records"] = float64(irep.Records)
			l["source.retries"] = float64(irep.Attempts - irep.Total)
			l["blocking.candidates"] = float64(rep.Candidates)
			l["linkage.comparisons"] = float64(rep.Comparisons)
			l["linkage.match_ratio"] = float64(len(rep.Matched)) / math.Max(1, float64(rep.Comparisons))
			l["linkage.clusters"] = float64(len(rep.Clusters))
			l["schema.mediated_attrs"] = float64(len(rep.Schema.Attrs))
			l["fusion.claims"] = float64(rep.Claims.Len())
			l["fusion.items"] = float64(rep.Claims.NumItems())
			l["core.snapshot_entities"] = float64(snap.Len())
		}
		return nil
	}

	n, mem := closedJobs(e, r, began, records, job)

	if l := r.PerLayer; l != nil {
		timed, jobs := timedSpans(e.tr), math.Max(1, float64(n))
		for layer, name := range map[string]string{
			"source.ingest_s": "source.ingest", "blocking.build_s": "blocking.build",
			"linkage.match_s": "linkage.match", "linkage.cluster_s": "linkage.cluster",
			"schema.align_s": "schema.align", "schema.transforms_s": "schema.transforms",
			"schema.normalize_s": "schema.normalize", "fusion.claims_s": "fusion.claims",
			"fusion.fuse_s": "fusion.fuse", "core.snapshot_build_s": "core.snapshot_build",
		} {
			l[layer] = total(timed, name) / jobs
		}
		l["linkage.comparisons_per_s"] = l["linkage.comparisons"] / math.Max(1e-9, l["linkage.match_s"])
		l["core.pipeline_gap_pct"] = median(gaps)
		if g := median(gaps); g > 5 {
			r.problem("the pipeline's stages miss the harness span around RunCtx by %.1f%% (limit 5%%)", g)
		}
		r.runtimeLayer(mem)
	}
	return nil
}

// pipelineChildren lays the pipeline's own stage timings (Report.StageTime
// and the obs span tree) as children inside the harness span around
// RunCtx, the one public call that crosses five layers. It returns by how
// many percent the stages miss the outer span.
func pipelineChildren(tr *tracer, parent int, outer time.Duration, rep *core.Report, snap *obs.Snapshot) float64 {
	sub := func(path string) time.Duration {
		for _, s := range snap.Spans {
			if s.Path == path {
				return s.Dur
			}
		}
		return 0
	}
	at := time.Duration(0)
	stage := func(name string, d time.Duration) int {
		id := tr.child(name, parent, at, d)
		at += d
		return id
	}
	stage("blocking.build", rep.StageTime["blocking"])
	stage("linkage.match", rep.StageTime["matching"])
	stage("linkage.cluster", rep.StageTime["clustering"])

	align := stage("schema", rep.StageTime["alignment"])
	off := time.Duration(0)
	for _, part := range []string{"align", "transforms", "normalize"} {
		d := sub("pipeline/alignment/" + part)
		tr.child("schema."+part, align, off, d)
		off += d
	}

	fuse := stage("fusion", rep.StageTime["fusion"])
	claims := sub("pipeline/fusion/claims")
	tr.child("fusion.claims", fuse, 0, claims)
	tr.child("fusion.fuse", fuse, claims, rep.StageTime["fusion"]-claims)

	return 100 * math.Abs(float64(outer-at)) / float64(outer)
}
