// Command bdirun executes the end-to-end big-data-integration pipeline
// over a dataset produced by bdigen (or any dataset in the same JSON/CSV
// form) and prints an integration report: linkage clusters, the mediated
// schema, discovered unit transforms and fused values. When the dataset
// carries ground truth, quality metrics are reported too.
//
// Input always flows through the resilient ingestor (retry, backoff,
// circuit breaking), so a fault-injected run (-fault-rate) degrades
// gracefully: dropped sources are reported and the pipeline integrates
// whatever survived. -timeout bounds the whole run; cancellation stops
// every stage at its next chunk boundary.
//
// Usage:
//
//	bdigen -out web.json && bdirun -in web.json -fuser accucopy
//	bdirun -in web.json -search "nova camera"   # query integrated entities
//	bdirun -in web.json -fault-rate 0.3 -fault-seed 7 -min-sources 5
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/source"
	"repro/internal/source/faults"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bdirun:", err)
		os.Exit(1)
	}
}

// run owns the whole lifecycle, so deferred cleanup (input files, the
// debug server) executes on error paths too — main's os.Exit would
// skip it.
func run() error {
	var (
		in          = flag.String("in", "-", "input dataset (JSON; - for stdin)")
		csvIn       = flag.Bool("csv", false, "input is CSV instead of JSON")
		order       = flag.String("order", "linkage-first", "stage order: linkage-first or schema-first")
		fuser       = flag.String("fuser", "vote", "fusion method: "+strings.Join(core.FuserNames(), ", "))
		clusterer   = flag.String("clusterer", "components", "clustering: components, center, merge, correlation, swoosh")
		meta        = flag.Bool("metablock", false, "apply meta-blocking")
		rankFusion  = flag.Bool("rank-fusion", false, "fuse token/q-gram/minhash/sorted-neighborhood/phonetic blockers with reciprocal-rank fusion")
		rrfK        = flag.Float64("rrf-k", 0, "reciprocal-rank-fusion constant (0 = default 60)")
		cmpBudget   = flag.Int("comparison-budget", 0, "cap matcher comparisons; consumes the candidate stream front-first (0 = unlimited)")
		fs          = flag.Bool("fellegi-sunter", false, "use the probabilistic matcher")
		workers     = flag.Int("workers", 0, "worker goroutines per stage (0 = NumCPU)")
		shards      = flag.Int("shards", 0, "partitions blocking's block building and RRF accumulation (0 = one per worker) and spill-run generation (0 = one); never changes output, no effect on an in-memory pair sweep")
		pairBudget  = flag.String("pair-mem-budget", "", "blocking pair-memory budget, e.g. 256mb (empty = unlimited; excess spills to disk)")
		spillDir    = flag.String("spill-dir", "", "directory for blocking spill runs (empty = system temp)")
		timeout     = flag.Duration("timeout", 0, "overall deadline for ingestion + pipeline (0 = none)")
		faultRate   = flag.Float64("fault-rate", 0, "inject transient faults at this per-fetch rate (plus rate/4 dead sources)")
		faultSeed   = flag.Int64("fault-seed", 1, "fault injection seed (schedules are reproducible per seed)")
		minSources  = flag.Int("min-sources", 1, "fail unless at least this many sources survive ingestion")
		verbose     = flag.Bool("v", false, "print clusters and fused values")
		search      = flag.String("search", "", "keyword query over the integrated entities")
		metrics     = flag.Bool("metrics", false, "print the stable metrics snapshot (byte-deterministic)")
		metricsJSON = flag.Bool("metrics-json", false, "print the stable metrics snapshot as JSON")
		metricsFull = flag.Bool("metrics-full", false, "print the full snapshot, including timers and scheduling metrics")
		debugAddr   = flag.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address")

		stream        = flag.Bool("stream", false, "stream the dataset through incremental linkage + online fusion instead of the batch pipeline")
		streamEpoch   = flag.Int("stream-epoch", 100, "records per stream epoch")
		streamPublish = flag.Int("stream-publish", 0, "publish every N epochs (0 = staleness-window cadence)")
		streamState   = flag.String("stream-state", "", "stream state file: restored on start, saved at each epoch (empty = no persistence)")
		streamUpdate  = flag.Float64("stream-update-rate", 0, "with -stream: churn this fraction of records as corrupt-then-correct updates")
		streamDelete  = flag.Float64("stream-delete-rate", 0, "with -stream: churn this fraction of records as late deletions")
	)
	flag.Parse()

	r := os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	var (
		d   *data.Dataset
		err error
	)
	if *csvIn {
		d, err = data.ReadCSV(r)
	} else {
		d, err = data.ReadJSON(r)
	}
	if err != nil {
		return err
	}

	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	if *debugAddr != "" {
		srv, addr, err := obs.ServeDebug(*debugAddr, reg)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "bdirun: debug server on http://%s\n", addr)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// Every source is a change log: a plain run replays the dataset as
	// upserts, for the ingestor and the stream alike.
	fleet := source.FromDataset(d)

	if *stream {
		scfg := core.StreamConfig{
			EpochSize:    *streamEpoch,
			PublishEvery: *streamPublish,
			StatePath:    *streamState,
			FusionN:      0,
			Workers:      *workers,
			Obs:          reg,
		}
		// -stream-update-rate/-stream-delete-rate add synthetic churn
		// (corrupt-then-correct updates, late deletions).
		totals := source.Totals(d)
		var planned map[string]bool
		if *streamUpdate > 0 || *streamDelete > 0 {
			// -fault-rate mangles the churned deltas (duplicate deletes,
			// delete-before-insert, update storms).
			fleet, totals, planned = churnFleet(d, source.ChurnConfig{
				Seed:       *faultSeed,
				UpdateRate: *streamUpdate,
				DeleteRate: *streamDelete,
			}, *faultRate, *faultSeed, reg)
		} else if *faultRate > 0 {
			// The stream path has no drop-a-source fallback — its
			// resilience is refetch-until-covered — so chaos here is
			// transient flakes and truncations, not dead sources.
			fleet = faults.WrapAll(fleet, faults.Config{
				Seed:             *faultSeed,
				TransientRate:    *faultRate,
				TruncateRate:     *faultRate / 2,
				TruncateFraction: 0.5,
				Obs:              reg,
			})
		}
		if err := runStream(ctx, scfg, fleet, totals, len(planned)); err != nil {
			return err
		}
		printMetrics(reg, *metrics, *metricsJSON, *metricsFull)
		return nil
	}

	// Ingest: every run goes through the resilient ingestor, with the
	// fault injector wrapped in when -fault-rate asks for chaos.
	if *faultRate > 0 {
		fleet = faults.WrapAll(fleet, faults.Config{
			Seed:          *faultSeed,
			TransientRate: *faultRate,
			DeadRate:      *faultRate / 4,
			Obs:           reg,
		})
	}
	ing := source.NewIngestor(source.IngestConfig{
		Workers:    *workers,
		MinSources: *minSources,
		Obs:        reg,
	})
	d, irep, err := ing.Ingest(ctx, fleet)
	if err != nil {
		return err
	}
	fmt.Printf("ingested: %d/%d sources ok (%d records, %d attempts)\n",
		irep.Succeeded, irep.Total, irep.Records, irep.Attempts)
	if len(irep.Dropped) > 0 {
		fmt.Printf("dropped sources: %s\n", strings.Join(irep.Dropped, " "))
	}
	if len(irep.Degraded) > 0 {
		fmt.Printf("degraded sources (needed retries): %s\n", strings.Join(irep.Degraded, " "))
	}

	budget, err := core.ParseByteSize(*pairBudget)
	if err != nil {
		return fmt.Errorf("-pair-mem-budget: %w", err)
	}
	cfg := core.Config{
		Fuser:            *fuser,
		Clusterer:        *clusterer,
		MetaBlock:        *meta,
		RankFusion:       *rankFusion,
		RRFK:             *rrfK,
		ComparisonBudget: *cmpBudget,
		FellegiSunter:    *fs,
		Workers:          *workers,
		Shards:           *shards,
		PairMemBudget:    budget,
		SpillDir:         *spillDir,
		Obs:              reg,
	}
	if cfg.Order, err = core.ParseOrder(*order); err != nil {
		return fmt.Errorf("-order: %w", err)
	}
	rep, err := core.New(cfg).RunCtx(ctx, d)
	if err != nil {
		return err
	}

	fmt.Printf("pipeline order: %s\n", cfg.Order)
	fmt.Printf("records: %d   sources: %d\n", d.NumRecords(), d.NumSources())
	fmt.Printf("candidates: %d   comparisons: %d   matched: %d   clusters: %d\n",
		rep.Candidates, rep.Comparisons, len(rep.Matched), len(rep.Clusters))
	fmt.Printf("mediated attributes: %d   transforms: %d\n", len(rep.Schema.Attrs), len(rep.Transforms))
	fmt.Printf("claims: %d   fused items: %d\n", rep.Claims.Len(), len(rep.Fusion.Values))
	for _, stage := range []string{"blocking", "matching", "clustering", "alignment", "fusion"} {
		fmt.Printf("%-10s %v\n", stage, rep.StageTime[stage])
	}

	if truth := d.GroundTruthClusters(); len(truth) > 0 {
		prf := eval.Clusters(rep.Clusters, truth)
		fmt.Printf("linkage quality vs ground truth: %s\n", prf)
	}

	if *search != "" {
		hits, err := rep.Search(*search, 5)
		if err != nil {
			return err
		}
		fmt.Printf("\n-- top hits for %q --\n", *search)
		for _, h := range hits {
			fmt.Printf("%.3f  %s  (%d records from %v)\n",
				h.Score, h.Entity.Title, len(h.Entity.Records), h.Entity.Sources)
			for _, attr := range sortedKeys(h.Entity.Values) {
				fmt.Printf("        %s = %s\n", attr, h.Entity.Values[attr])
			}
		}
	}

	if *verbose {
		fmt.Println("\n-- mediated schema --")
		fmt.Print(rep.Schema)
		fmt.Println("\n-- transforms --")
		for _, t := range rep.Transforms {
			fmt.Printf("%s -> %s  x%.4f (support %d)\n", t.From, t.To, t.Scale, t.Support)
		}
		fmt.Println("\n-- clusters (multi-record only) --")
		for i, cl := range rep.Clusters {
			if len(cl) > 1 {
				fmt.Printf("cluster %d: %v\n", i, cl)
			}
		}
		fmt.Println("\n-- fused values --")
		items := rep.Claims.Items()
		sort.Slice(items, func(i, j int) bool { return items[i].String() < items[j].String() })
		for _, it := range items {
			if v, ok := rep.Fusion.Values[it]; ok {
				fmt.Printf("%s = %s (conf %.3f)\n", it, v, rep.Fusion.Confidence[it])
			}
		}
	}

	printMetrics(reg, *metrics, *metricsJSON, *metricsFull)
	return nil
}

// churnFleet replays d as churned delta logs (see source.Churn), with
// the deltas mangled at faultRate when it is positive. It returns the
// fleet, its log lengths and the IDs the churn plans to delete.
func churnFleet(d *data.Dataset, churn source.ChurnConfig, faultRate float64, faultSeed int64,
	reg *obs.Registry) ([]source.DeltaSource, map[string]int, map[string]bool) {
	fleet, totals, planned := source.ChurnSources(d, churn)
	if faultRate > 0 {
		mcfg := faults.DeltaConfig{
			Seed:            faultSeed,
			DupDeleteRate:   faultRate,
			EarlyDeleteRate: faultRate / 2,
			UpdateStormRate: faultRate / 2,
			Obs:             reg,
		}
		mangled := map[string]int{}
		for _, s := range fleet {
			ds := s.(*source.DeltaStatic)
			mangled[ds.Src.ID] = faults.MangledTotal(ds.Src.ID, ds.Log, mcfg)
		}
		fleet, totals = faults.WrapDeltasAll(fleet, mcfg), mangled
	}
	return fleet, totals, planned
}

// runStream drives the velocity path: the delta fleet is replayed as an
// epoch stream through incremental linkage with retraction and online
// fusion over live claims only, with the final published view and
// cumulative costs reported instead of the batch pipeline's stage
// table. planned is how many deletions the churn scheduled.
func runStream(ctx context.Context, cfg core.StreamConfig, fleet []source.DeltaSource,
	totals map[string]int, planned int) error {
	var last *core.Snapshot
	st, err := core.ResumeStream(cfg, func(snap *core.Snapshot) { last = snap })
	if err != nil {
		return err
	}
	if st.Epoch() > 0 {
		fmt.Printf("resumed stream state: epoch %d, %d records already ingested\n", st.Epoch(), st.Ingested())
	}
	t0 := time.Now()
	if err := st.RunDeltas(ctx, fleet, totals); err != nil {
		return err
	}
	elapsed := time.Since(t0)

	fmt.Printf("stream: %d records inserted, %d deleted (%d planned) in %d epochs (%v)\n",
		st.Ingested(), st.Deleted(), planned, st.Epoch(), elapsed.Round(time.Millisecond))
	fmt.Printf("publishes: %d   comparisons: %d   clusters: %d   live records: %d\n",
		st.Publishes(), st.Comparisons(), len(st.Clusters()), st.Dataset().NumRecords())
	if last != nil {
		fmt.Printf("final view: %d entities\n", last.Len())
	}
	if live := st.Dataset().GroundTruthClusters(); len(live) > 0 {
		fmt.Printf("linkage quality vs live ground truth: %s\n", eval.Clusters(st.Clusters(), live))
	}
	return nil
}

func printMetrics(reg *obs.Registry, metrics, metricsJSON, metricsFull bool) {
	if !metrics && !metricsJSON && !metricsFull {
		return
	}
	snap := reg.Snapshot()
	if !metricsFull {
		snap = snap.Stable()
	}
	switch {
	case metricsJSON:
		js, err := snap.JSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bdirun: metrics:", err)
			return
		}
		fmt.Printf("\n%s\n", js)
	default:
		fmt.Printf("\n-- metrics --\n%s", snap.Text())
	}
}

func sortedKeys(m map[string]data.Value) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
