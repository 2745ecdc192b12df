package bdi

import (
	"context"
	"math"
	"sort"
	"testing"

	"repro/internal/experiments"
)

// One benchmark per experiment in DESIGN.md's index. Each iteration
// regenerates the experiment's workload and recomputes its table, so
// ns/op measures the full cost of reproducing that result. Key quality
// figures are attached as custom metrics so `go test -bench` output
// doubles as a results summary.

func benchExperiment(b *testing.B, id string, metric func() (string, float64)) {
	b.Helper()
	r := experiments.Runner{Seed: 42}
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(id); err != nil {
			b.Fatal(err)
		}
	}
	if metric != nil {
		name, v := metric()
		b.ReportMetric(v, name)
	}
}

func BenchmarkE1FusionUnderCopying(b *testing.B) {
	benchExperiment(b, "E1", func() (string, float64) {
		_, res, err := experiments.E1(42)
		if err != nil {
			b.Fatal(err)
		}
		return "accucopy@heavy", res.Accuracy[1.0]["accucopy"]
	})
}

func BenchmarkE2Convergence(b *testing.B) {
	benchExperiment(b, "E2", func() (string, float64) {
		_, res, err := experiments.E2(42)
		if err != nil {
			b.Fatal(err)
		}
		return "final-accuracy", res.Accuracy[len(res.Accuracy)-1]
	})
}

func BenchmarkE3Blocking(b *testing.B) {
	benchExperiment(b, "E3", func() (string, float64) {
		_, res, err := experiments.E3(42)
		if err != nil {
			b.Fatal(err)
		}
		return "token-PC", res.Quality["token(title)"].PairCompleteness
	})
}

func BenchmarkE4MetaBlocking(b *testing.B) {
	benchExperiment(b, "E4", func() (string, float64) {
		_, res, err := experiments.E4(42)
		if err != nil {
			b.Fatal(err)
		}
		return "ecbs+wep-PC", res.Meta["ecbs+wep"].PairCompleteness
	})
}

func BenchmarkE5Matchers(b *testing.B) {
	benchExperiment(b, "E5", func() (string, float64) {
		_, res, err := experiments.E5(42)
		if err != nil {
			b.Fatal(err)
		}
		return "rule-F1@dirt1", res.F1[1]["rule(id)"]
	})
}

func BenchmarkE6Clustering(b *testing.B) {
	benchExperiment(b, "E6", func() (string, float64) {
		_, res, err := experiments.E6(42)
		if err != nil {
			b.Fatal(err)
		}
		return "correlation-F1", res.PRF["correlation"].F1
	})
}

func BenchmarkE7Incremental(b *testing.B) {
	benchExperiment(b, "E7", func() (string, float64) {
		_, res, err := experiments.E7(42)
		if err != nil {
			b.Fatal(err)
		}
		return "incremental-F1", res.FinalIncrementalF1
	})
}

func BenchmarkE8SchemaAlignment(b *testing.B) {
	benchExperiment(b, "E8", func() (string, float64) {
		_, res, err := experiments.E8(42)
		if err != nil {
			b.Fatal(err)
		}
		return "align-F1@max-sources", res.LinkageF1[len(res.LinkageF1)-1]
	})
}

func BenchmarkE9ScaleOut(b *testing.B) {
	benchExperiment(b, "E9", func() (string, float64) {
		_, res, err := experiments.E9(42)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Speedup[len(res.Speedup)-1], "cache-speedup")
		return "pairs/sec@max-workers", res.Throughput[len(res.Throughput)-1]
	})
}

func BenchmarkE10LessIsMore(b *testing.B) {
	benchExperiment(b, "E10", func() (string, float64) {
		_, res, err := experiments.E10(42)
		if err != nil {
			b.Fatal(err)
		}
		return "greedy-accuracy", res.Greedy.Quality
	})
}

func BenchmarkE11DomainStudy(b *testing.B) {
	benchExperiment(b, "E11", func() (string, float64) {
		_, res, err := experiments.E11(42)
		if err != nil {
			b.Fatal(err)
		}
		return "accucopy@stock", res.Accuracy["stock-like (heavy copying)"]["accucopy"]
	})
}

func BenchmarkE12Temporal(b *testing.B) {
	benchExperiment(b, "E12", func() (string, float64) {
		_, res, err := experiments.E12(42)
		if err != nil {
			b.Fatal(err)
		}
		return "temporal-F1@evolving", res.EvolvingTemporalF1
	})
}

func BenchmarkE13EndToEnd(b *testing.B) {
	benchExperiment(b, "E13", func() (string, float64) {
		_, res, err := experiments.E13(42)
		if err != nil {
			b.Fatal(err)
		}
		return "linkage-F1", res.LinkageF1
	})
}

func BenchmarkE14OrderAblation(b *testing.B) {
	benchExperiment(b, "E14", func() (string, float64) {
		_, res, err := experiments.E14(42)
		if err != nil {
			b.Fatal(err)
		}
		return "linkage-first-align-F1", res.LinkageFirstAlignF1
	})
}

func BenchmarkE15OnlineFusion(b *testing.B) {
	benchExperiment(b, "E15", func() (string, float64) {
		_, res, err := experiments.E15(42)
		if err != nil {
			b.Fatal(err)
		}
		return "mean-probes", res.MeanProbes
	})
}

func BenchmarkE16PayAsYouGo(b *testing.B) {
	benchExperiment(b, "E16", func() (string, float64) {
		_, res, err := experiments.E16(42)
		if err != nil {
			b.Fatal(err)
		}
		return "F1@60q", res.F1[len(res.F1)-1]
	})
}

func BenchmarkE17Ablations(b *testing.B) {
	benchExperiment(b, "E17", func() (string, float64) {
		_, res, err := experiments.E17(42)
		if err != nil {
			b.Fatal(err)
		}
		return "bootstrap-gain", res.FuseBootstrap - res.FuseNoBootstrap
	})
}

func BenchmarkE18LSH(b *testing.B) {
	benchExperiment(b, "E18", func() (string, float64) {
		_, res, err := experiments.E18(42)
		if err != nil {
			b.Fatal(err)
		}
		return "lsh16x2-PC", res.Quality["minhash(16x2)"].PairCompleteness
	})
}

func BenchmarkE19Deception(b *testing.B) {
	benchExperiment(b, "E19", func() (string, float64) {
		_, res, err := experiments.E19(42)
		if err != nil {
			b.Fatal(err)
		}
		return "accucopy@8liars", res.Accuracy[8]["accucopy"]
	})
}

func BenchmarkE20ProgressiveER(b *testing.B) {
	benchExperiment(b, "E20", func() (string, float64) {
		_, res, err := experiments.E20(42)
		if err != nil {
			b.Fatal(err)
		}
		return "recall@10%budget", res.Progressive[2]
	})
}

func BenchmarkE21Discovery(b *testing.B) {
	benchExperiment(b, "E21", func() (string, float64) {
		_, res, err := experiments.E21(42)
		if err != nil {
			b.Fatal(err)
		}
		return "final-recall", res.Recall[len(res.Recall)-1]
	})
}

func BenchmarkE22WrapperInduction(b *testing.B) {
	benchExperiment(b, "E22", func() (string, float64) {
		_, res, err := experiments.E22(42)
		if err != nil {
			b.Fatal(err)
		}
		return "reinduced-recall", res.ReinducedRecall
	})
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
	cands = StandardBlocking{Key: TokenBlockingKey("title"), MaxBlock: 200}.Candidates(d.Records())
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

// BenchmarkMatchPairsObsDisabled is the cached workload with a nil
// registry — since the one matching door always takes a registry, the
// same call as BenchmarkMatchPairsCached. It stays as the named
// zero-overhead row BenchmarkMatchPairsObsEnabled is read against.
func BenchmarkMatchPairsObsDisabled(b *testing.B) {
	benchMatch(b, ThresholdMatcher{Comparator: matchBenchComparator(), Threshold: 0.6}, nil)
}

// BenchmarkMatchPairsObsEnabled is the same workload with a live
// registry attached, to price the enabled instrumentation.
func BenchmarkMatchPairsObsEnabled(b *testing.B) {
	benchMatch(b, ThresholdMatcher{Comparator: matchBenchComparator(), Threshold: 0.6}, NewMetrics())
}

func BenchmarkPipelineEndToEnd(b *testing.B) {
	world := NewWorld(WorldConfig{Seed: 1, NumEntities: 60})
	web := BuildWeb(world, SourceConfig{Seed: 2, NumSources: 12, DirtLevel: 1})
	p := NewPipeline(PipelineConfig{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Run(web.Dataset); err != nil {
			b.Fatal(err)
		}
	}
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

func BenchmarkTokenBlocking(b *testing.B) {
	world := NewWorld(WorldConfig{Seed: 3, NumEntities: 150})
	web := BuildWeb(world, SourceConfig{Seed: 4, NumSources: 15, DirtLevel: 1})
	records := web.Dataset.Records()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildBlocks(records, TokenBlockingKey("title")).Pairs()
	}
}

// blockingBenchWorkload is the E3-style dirty web the blocking-engine
// benchmarks run over.
func blockingBenchWorkload() []*Record {
	world := NewWorld(WorldConfig{Seed: 3, NumEntities: 400, Categories: []string{"camera"}})
	web := BuildWeb(world, SourceConfig{
		Seed: 4, NumSources: 20, DirtLevel: 2,
		IdentifierRate: 0.7, Heterogeneity: 0.3,
		HeadFraction: 0.4, TailCoverage: 0.3,
	})
	return web.Dataset.Records()
}

// legacyBuildBlocks is the pre-engine sequential implementation (fresh
// dedup map per record) kept inline as the benchmark baseline.
func legacyBuildBlocks(records []*Record, key KeyFunc) Blocks {
	b := Blocks{}
	for _, r := range records {
		seen := map[string]bool{}
		for _, k := range key(r) {
			if k == "" || seen[k] {
				continue
			}
			seen[k] = true
			b[k] = append(b[k], r.ID)
		}
	}
	return b
}

// legacyPairs is the pre-engine map[Pair]bool dedup kept inline as the
// benchmark baseline.
func legacyPairs(blocks Blocks) []Pair {
	seen := map[Pair]bool{}
	var out []Pair
	for _, k := range blocks.SortedKeys() {
		ids := blocks[k]
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				p := NewPair(ids[i], ids[j])
				if !seen[p] {
					seen[p] = true
					out = append(out, p)
				}
			}
		}
	}
	return out
}

// BenchmarkBuildBlocks compares block building: the legacy per-record-
// map loop, the engine at one worker, and the engine at NumCPU.
func BenchmarkBuildBlocks(b *testing.B) {
	records := blockingBenchWorkload()
	key := TokenBlockingKey("title")
	b.Run("legacy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			legacyBuildBlocks(records, key)
		}
	})
	b.Run("engine-1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			BuildIndexedBlocks(records, key, 1)
		}
	})
	b.Run("engine-ncpu", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			BuildIndexedBlocks(records, key, 0)
		}
	})
}

// BenchmarkBlocksPairs compares candidate expansion + dedup: the legacy
// map[Pair]bool path against the packed pair-code sort/compact path.
func BenchmarkBlocksPairs(b *testing.B) {
	records := blockingBenchWorkload()
	idx := BuildIndexedBlocks(records, TokenBlockingKey("title"), 0).Purge(200)
	blocks := idx.Blocks()
	n := 0
	b.Run("legacy-map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n = len(legacyPairs(blocks))
		}
		b.ReportMetric(float64(n), "pairs/batch")
	})
	b.Run("packed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n = idx.CandidateSet().Len()
		}
		b.ReportMetric(float64(n), "pairs/batch")
	})
}

// legacyMetaCandidates is the pre-engine ECBS+WEP meta-blocking (maps
// keyed by pair and record ID) kept inline as the benchmark baseline.
func legacyMetaCandidates(blocks Blocks) []Pair {
	blockOf := map[string][]string{}
	for _, k := range blocks.SortedKeys() {
		for _, id := range blocks[k] {
			blockOf[id] = append(blockOf[id], k)
		}
	}
	common := map[Pair]int{}
	for _, k := range blocks.SortedKeys() {
		ids := blocks[k]
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				common[NewPair(ids[i], ids[j])]++
			}
		}
	}
	type edge struct {
		p Pair
		w float64
	}
	nBlocks := float64(len(blocks))
	edges := make([]edge, 0, len(common))
	for p, c := range common {
		w := float64(c) *
			math.Log(nBlocks/float64(len(blockOf[p.A]))) *
			math.Log(nBlocks/float64(len(blockOf[p.B])))
		edges = append(edges, edge{p: p, w: w})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].w != edges[j].w {
			return edges[i].w > edges[j].w
		}
		if edges[i].p.A != edges[j].p.A {
			return edges[i].p.A < edges[j].p.A
		}
		return edges[i].p.B < edges[j].p.B
	})
	if len(edges) == 0 {
		return nil
	}
	var sum float64
	for _, e := range edges {
		sum += e.w
	}
	mean := sum / float64(len(edges))
	var out []Pair
	for _, e := range edges {
		if e.w > mean {
			out = append(out, e.p)
		}
	}
	return out
}

// BenchmarkMetaBlocking compares ECBS+WEP meta-blocking: the legacy
// map-of-pairs graph against the interned kernel, sequential and
// parallel.
func BenchmarkMetaBlocking(b *testing.B) {
	records := blockingBenchWorkload()
	idx := BuildIndexedBlocks(records, TokenBlockingKey("title"), 0).Purge(200)
	blocks := idx.Blocks()
	b.Run("legacy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			legacyMetaCandidates(blocks)
		}
	})
	b.Run("engine-1", func(b *testing.B) {
		mb := MetaBlocker{Weight: ECBSWeight, Prune: WEPPrune, Workers: 1}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mb.Pruned(idx)
		}
	})
	b.Run("engine-ncpu", func(b *testing.B) {
		mb := MetaBlocker{Weight: ECBSWeight, Prune: WEPPrune}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mb.Pruned(idx)
		}
	})
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
		r.ID = r.ID + "-" + itoa(i)
		if _, err := linker.Insert(web.Dataset.Source(r.SourceID), r); err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [20]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[pos:])
}
