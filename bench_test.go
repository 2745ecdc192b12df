package bdi

import (
	"context"
	"strconv"
	"testing"

	"repro/internal/experiments"
)

// BenchmarkExperiment has one sub-benchmark per entry of the
// experiments registry (E1–E28 of DESIGN.md's index), each at its
// committed configuration. Each iteration regenerates the experiment's
// workload and recomputes its table, so ns/op measures the full cost of
// reproducing that result; where an experiment has key quality figures
// they are read from the last timed run and attached as custom metrics,
// so `go test -bench Experiment` output doubles as a results summary.
func BenchmarkExperiment(b *testing.B) {
	for _, e := range experiments.All() {
		b.Run(e.ID, func(b *testing.B) {
			var res any
			for i := 0; i < b.N; i++ {
				var err error
				if _, res, err = e.Run(42, experiments.Opts{}); err != nil {
					b.Fatal(err)
				}
			}
			if report := experimentFigures[e.ID]; report != nil {
				report(b, res)
			}
		})
	}
}

// figure names one quality figure of an experiment's structured result.
type figure[R any] struct {
	name string
	pick func(R) float64
}

func fig[R any](name string, pick func(R) float64) figure[R] { return figure[R]{name, pick} }

// figures reports the given figures of an experiment's result as
// custom metrics.
func figures[R any](figs ...figure[R]) func(*testing.B, any) {
	return func(b *testing.B, res any) {
		r, ok := res.(R)
		if !ok {
			b.Fatalf("result is %T, want %T", res, r)
		}
		for _, f := range figs {
			b.ReportMetric(f.pick(r), f.name)
		}
	}
}

// experimentFigures maps an experiment ID to its figures.
var experimentFigures = map[string]func(*testing.B, any){
	"E1": figures(fig("accucopy@heavy", func(r *experiments.E1Result) float64 { return r.Accuracy[1.0]["accucopy"] })),
	"E2": figures(fig("final-accuracy", func(r *experiments.E2Result) float64 { return r.Accuracy[len(r.Accuracy)-1] })),
	"E3": figures(fig("token-PC", func(r *experiments.E3Result) float64 { return r.Quality["token(title)"].PairCompleteness })),
	"E4": figures(fig("ecbs+wep-PC", func(r *experiments.E4Result) float64 { return r.Meta["ecbs+wep"].PairCompleteness })),
	"E5": figures(fig("rule-F1@dirt1", func(r *experiments.E5Result) float64 { return r.F1[1]["rule(id)"] })),
	"E6": figures(fig("correlation-F1", func(r *experiments.E6Result) float64 { return r.PRF["correlation"].F1 })),
	"E7": figures(fig("incremental-F1", func(r *experiments.E7Result) float64 { return r.FinalIncrementalF1 })),
	"E8": figures(fig("align-F1@max-sources", func(r *experiments.E8Result) float64 { return r.LinkageF1[len(r.LinkageF1)-1] })),
	"E9": figures(fig("cache-speedup", func(r *experiments.E9Result) float64 { return r.Speedup[len(r.Speedup)-1] }),
		fig("pairs/sec@max-workers", func(r *experiments.E9Result) float64 { return r.Throughput[len(r.Throughput)-1] })),
	"E10": figures(fig("greedy-accuracy", func(r *experiments.E10Result) float64 { return r.Greedy.Quality })),
	"E11": figures(fig("accucopy@stock", func(r *experiments.E11Result) float64 { return r.Accuracy["stock-like (heavy copying)"]["accucopy"] })),
	"E12": figures(fig("temporal-F1@evolving", func(r *experiments.E12Result) float64 { return r.EvolvingTemporalF1 })),
	"E13": figures(fig("linkage-F1", func(r *experiments.E13Result) float64 { return r.LinkageF1 })),
	"E14": figures(fig("linkage-first-align-F1", func(r *experiments.E14Result) float64 { return r.LinkageFirstAlignF1 })),
	"E15": figures(fig("mean-probes", func(r *experiments.E15Result) float64 { return r.MeanProbes })),
	"E16": figures(fig("F1@60q", func(r *experiments.E16Result) float64 { return r.F1[len(r.F1)-1] })),
	"E17": figures(fig("bootstrap-gain", func(r *experiments.E17Result) float64 { return r.FuseBootstrap - r.FuseNoBootstrap })),
	"E18": figures(fig("lsh16x2-PC", func(r *experiments.E18Result) float64 { return r.Quality["minhash(16x2)"].PairCompleteness })),
	"E19": figures(fig("accucopy@8liars", func(r *experiments.E19Result) float64 { return r.Accuracy[8]["accucopy"] })),
	"E20": figures(fig("recall@10%budget", func(r *experiments.E20Result) float64 { return r.Progressive[2] })),
	"E21": figures(fig("final-recall", func(r *experiments.E21Result) float64 { return r.Recall[len(r.Recall)-1] })),
	"E22": figures(fig("reinduced-recall", func(r *experiments.E22Result) float64 { return r.ReinducedRecall })),
}

// Micro-benchmarks for the primitives the pipeline spends its time in.

// matchBenchWorkload is the E5-style dirty-duplicate workload used by
// the cached/uncached matching benchmarks.
func matchBenchWorkload() (d *Dataset, cands []Pair) {
	world := NewWorld(WorldConfig{Seed: 9, NumEntities: 60, Categories: []string{"camera"}})
	web := BuildWeb(world, SourceConfig{
		Seed: 10, NumSources: 10, DirtLevel: 2,
		IdentifierRate: 0.9, Heterogeneity: 0.3,
		HeadFraction: 0.4, TailCoverage: 0.3,
	})
	d = web.Dataset
	cands = NewBlockingEngine(d.Records(), BlockingOpts{}).Blocks(TokenBlockingKey("title")).Purge(200).Pairs()
	return d, cands
}

func matchBenchComparator() *RecordComparator {
	return NewRecordComparator(
		FieldWeight{Attr: "title", Weight: 2, Metric: Jaccard},
		FieldWeight{Attr: "camera_brand", Weight: 1, Metric: NamedMetric("dice")},
		FieldWeight{Attr: "camera_color", Weight: 1},
		FieldWeight{Attr: "camera_price_usd", Weight: 1},
	)
}

// benchMatch times the matching loop over the shared workload on one
// worker.
func benchMatch(b *testing.B, m Matcher, reg *Metrics) {
	d, cands := matchBenchWorkload()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MatchStream(context.Background(), d, PairSlice(cands), m, 1, reg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(cands)), "pairs/batch")
}

// BenchmarkMatchPairsCached scores candidate pairs with the per-record
// feature cache (the default).
func BenchmarkMatchPairsCached(b *testing.B) {
	benchMatch(b, ThresholdMatcher{Comparator: matchBenchComparator(), Threshold: 0.6}, nil)
}

// BenchmarkMatchPairsUncached is the same workload with the cache
// disabled: every pair re-tokenises both records.
func BenchmarkMatchPairsUncached(b *testing.B) {
	benchMatch(b, NoIndexMatcher(ThresholdMatcher{Comparator: matchBenchComparator(), Threshold: 0.6}), nil)
}

// BenchmarkMatchPairsObsEnabled is the cached workload with a live
// registry attached: read against BenchmarkMatchPairsCached, it prices
// the enabled instrumentation.
func BenchmarkMatchPairsObsEnabled(b *testing.B) {
	benchMatch(b, ThresholdMatcher{Comparator: matchBenchComparator(), Threshold: 0.6}, NewMetrics())
}

func BenchmarkGenerateWeb(b *testing.B) {
	world := NewWorld(WorldConfig{Seed: 1, NumEntities: 200})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildWeb(world, SourceConfig{Seed: int64(i), NumSources: 20, DirtLevel: 2})
	}
}

func BenchmarkJaccardTitle(b *testing.B) {
	x, y := "nova camera pro 300 deluxe", "nova camera pro 300"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Jaccard(x, y)
	}
}

func BenchmarkJaroWinklerTitle(b *testing.B) {
	x, y := "nova camera pro 300 deluxe", "nova camera pro 300"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		JaroWinkler(x, y)
	}
}

func BenchmarkLevenshteinTitle(b *testing.B) {
	x, y := "nova camera pro 300 deluxe", "nova camera pro 300"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Levenshtein(x, y)
	}
}

// blockingBenchWorkload is the E3-style dirty web the blocking
// benchmark runs over.
func blockingBenchWorkload() []*Record {
	world := NewWorld(WorldConfig{Seed: 3, NumEntities: 400, Categories: []string{"camera"}})
	web := BuildWeb(world, SourceConfig{
		Seed: 4, NumSources: 20, DirtLevel: 2,
		IdentifierRate: 0.7, Heterogeneity: 0.3,
		HeadFraction: 0.4, TailCoverage: 0.3,
	})
	return web.Dataset.Records()
}

// BenchmarkBlocking times the three steps of the blocking engine over
// token blocking on titles — block building, candidate expansion +
// dedup on packed pair codes, ECBS+WEP meta-blocking — at one worker and
// at NumCPU. Their output against the sequential forms is pinned by
// internal/blocking's TestEngine*MatchesSeed.
func BenchmarkBlocking(b *testing.B) {
	records := blockingBenchWorkload()
	key := TokenBlockingKey("title")
	for _, w := range []struct {
		name    string
		workers int
	}{{"1", 1}, {"ncpu", 0}} {
		eng := NewBlockingEngine(records, BlockingOpts{Workers: w.workers})
		idx := eng.Blocks(key).Purge(200)
		mb := MetaBlocker{Weight: ECBSWeight, Prune: WEPPrune}
		for _, step := range []struct {
			name string
			run  func() int
		}{
			{"blocks", func() int { return eng.Blocks(key).NumBlocks() }},
			{"pairs", func() int { return idx.CandidateSet().Len() }},
			{"meta", func() int { return mb.Pruned(idx).Len() }},
		} {
			b.Run(step.name+"/workers-"+w.name, func(b *testing.B) {
				b.ReportAllocs()
				n := 0
				for i := 0; i < b.N; i++ {
					n = step.run()
				}
				b.ReportMetric(float64(n), "out/op")
			})
		}
		if err := eng.Err(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkACCUFuse times the full ACCU EM on an E2-style workload
// scaled up so the parallel engine has work to spread: sequential
// (Workers: 1) vs the default worker pool. Both produce byte-identical
// results (pinned by internal/fusion/engine_test.go).
func BenchmarkACCUFuse(b *testing.B) {
	cw := BuildClaims(ClaimConfig{
		Seed: 5, NumItems: 2000, NumValues: 5, NumSources: 30,
		MinAccuracy: 0.4, MaxAccuracy: 0.95,
	})
	for _, bench := range []struct {
		name string
		f    ACCU
	}{
		{"seq", ACCU{Workers: 1}},
		{"par", ACCU{}},
	} {
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bench.f.Fuse(cw.Claims); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCopyDetect times the O(S²·overlap) pairwise copy detector,
// sequential vs parallel over source pairs.
func BenchmarkCopyDetect(b *testing.B) {
	cw := BuildClaims(ClaimConfig{
		Seed: 9, NumItems: 1500, NumValues: 5, NumSources: 40,
		MinAccuracy: 0.4, MaxAccuracy: 0.95, NumCopiers: 8, CopyRate: 0.9,
	})
	truth, err := ACCU{}.Fuse(cw.Claims)
	if err != nil {
		b.Fatal(err)
	}
	for _, bench := range []struct {
		name string
		cd   CopyDetector
	}{
		{"seq", CopyDetector{Workers: 1}},
		{"par", CopyDetector{}},
	} {
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bench.cd.Detect(cw.Claims, truth, truth.SourceAccuracy)
			}
		})
	}
}

func BenchmarkFuseACCUCOPY(b *testing.B) {
	cw := BuildClaims(ClaimConfig{Seed: 6, NumItems: 200, NumSources: 8, NumCopiers: 4})
	f := ACCUCOPY{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Fuse(cw.Claims); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIncrementalInsert(b *testing.B) {
	world := NewWorld(WorldConfig{Seed: 7, NumEntities: 500, Categories: []string{"camera"}})
	web := BuildWeb(world, SourceConfig{Seed: 8, NumSources: 20, DirtLevel: 1})
	records := web.Dataset.Records()
	linker := NewIncrementalLinker(TitleTokenKey, ThresholdMatcher{
		Comparator: UniformComparator(Jaccard, "title"),
		Threshold:  0.72,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := records[i%len(records)].Clone()
		r.ID = r.ID + "-" + strconv.Itoa(i)
		if _, err := linker.Insert(web.Dataset.Source(r.SourceID), r); err != nil {
			b.Fatal(err)
		}
	}
}
