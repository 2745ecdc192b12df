package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/blocking"
	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/linkage"
	"repro/internal/obs"
	"repro/internal/similarity"
)

// Committed input size of link_scale (see BENCHMARK.json): four fifths of
// the issue's 500k records, the most whose set-up, warm-up job and 20 s
// window fit the 35 s the driver's time cap leaves a run.
const (
	linkScaleRecords = 350_000
	linkScaleGroup   = 8
	linkScaleSources = 16
	linkScaleShards  = 8
)

var linkScale = workload{
	name:         "link_scale",
	why:          "Volume: sharded blocking with spill, streamed matching and clustering over 350k lean records; schema, fusion and serve do nothing here, so it must not move when alignment or publish changes",
	loop:         "closed loop, one job at a time, 1 warm-up job then timed jobs for the window (about 4); 1 driver goroutine",
	driver:       jobDriver,
	overhead:     "job_s",
	qualityFloor: 0.97,
	quality42:    1,
	run:          runLinkScale,
}

// scaleGroup recovers a scale record's ground-truth group from its ID
// ("s<src>-r<i>", groups are runs of linkScaleGroup consecutive i).
func scaleGroup(id string) int {
	i, _ := strconv.Atoi(id[strings.LastIndex(id, "-r")+2:])
	return i / linkScaleGroup
}

func runLinkScale(e *env, r *result) error {
	ctx := context.Background()
	n := e.size(linkScaleRecords, 400)
	began := time.Now()
	recs := datagen.ScaleRecords(datagen.ScaleConfig{
		Seed: e.seed, NumRecords: n, GroupSize: linkScaleGroup, Sources: linkScaleSources,
	})
	ds := data.NewDataset()
	for s := 0; s < linkScaleSources; s++ {
		if err := ds.AddSource(&data.Source{ID: "src" + strconv.Itoa(s)}); err != nil {
			return err
		}
	}
	ids := make([]string, len(recs))
	truth := make(data.Clustering, (n+linkScaleGroup-1)/linkScaleGroup)
	for i, rec := range recs {
		if err := ds.AddRecord(rec); err != nil {
			return err
		}
		ids[i] = rec.ID
		truth[i/linkScaleGroup] = append(truth[i/linkScaleGroup], rec.ID)
	}

	// The pair budget is a quarter of what the raw pair codes would take
	// in memory (16 B each), so pair generation always spills.
	rawPairs := int64(len(truth)) * linkScaleGroup * (linkScaleGroup - 1) / 2
	opts := blocking.Opts{Workers: workers, Shards: linkScaleShards, PairMemBudget: rawPairs * 16 / 4, SpillDir: e.tmpDir}
	r.Sizes = fmt.Sprintf("%d records in groups of %d, %d sources, %d shards, pair budget %d B",
		n, linkScaleGroup, linkScaleSources, linkScaleShards, opts.PairMemBudget)
	key := blocking.TokenKey("title")

	job := func(op int) error {
		root := e.tr.begin("job", -1, op)
		defer e.tr.end(root)

		o := opts
		if e.tr != nil {
			o.Obs = obs.NewRegistry()
		}
		sp := e.tr.begin("blocking.build", root, op)
		eng := blocking.NewEngineOpts(recs, o)
		cs := eng.Blocks(key).Purge(linkScaleGroup).CandidateSet()
		e.tr.end(sp)
		defer cs.Close()
		if err := eng.Err(); err != nil {
			return err
		}

		matcher := linkage.RuleMatcher{
			Comparator: similarity.NewRecordComparator(similarity.FieldWeight{Attr: "title", Weight: 1, Metric: similarity.Jaccard}),
			Threshold:  0.6,
		}
		sp = e.tr.begin("linkage.match", root, op)
		matched, err := linkage.MatchStreamCtx(ctx, ds, cs, matcher, workers, o.Obs)
		e.tr.end(sp)
		if err != nil {
			return err
		}

		sp = e.tr.begin("linkage.cluster", root, op)
		clusters := linkage.ConnectedComponents{}.Cluster(ids, matched)
		e.tr.end(sp)

		r.sameDigest(clusteringDigest(clusters))
		if op == 0 {
			r.set("link_f1", eval.Clusters(clusters, truth).F1, 1)
		}
		if l := r.PerLayer; l != nil { // work counts: they repeat exactly from job to job
			l["source.records"] = float64(len(recs))
			l["blocking.candidates"] = float64(cs.Len())
			l["linkage.comparisons"] = float64(cs.Len())
			l["linkage.match_ratio"] = float64(len(matched)) / math.Max(1, float64(cs.Len()))
			l["linkage.clusters"] = float64(len(clusters))
			for _, c := range o.Obs.Snapshot().Counters {
				if c.Name == "blocking.spill_runs" {
					l["blocking.spill_runs"] = float64(c.Value)
				}
			}
			if op == 0 { // once, in the warm-up job: it walks every candidate pair
				useful := 0
				cs.EmitPairs(func(p data.Pair) bool {
					if scaleGroup(p.A) == scaleGroup(p.B) {
						useful++
					}
					return true
				})
				l["blocking.useful_ratio"] = float64(useful) / math.Max(1, float64(cs.Len()))
			}
		}
		return nil
	}

	jobs, mem := closedJobs(e, r, began, n, job)
	if left, err := os.ReadDir(e.tmpDir); err == nil && len(left) > 0 {
		r.problem("%d spill entries left behind in %s", len(left), e.tmpDir)
	}

	if l := r.PerLayer; l != nil {
		timed, jobs := timedSpans(e.tr), math.Max(1, float64(jobs))
		l["blocking.build_s"] = total(timed, "blocking.build") / jobs
		l["linkage.match_s"] = total(timed, "linkage.match") / jobs
		l["linkage.cluster_s"] = total(timed, "linkage.cluster") / jobs
		l["linkage.comparisons_per_s"] = l["linkage.comparisons"] / math.Max(1e-9, l["linkage.match_s"])
		r.runtimeLayer(mem)
	}
	return nil
}
