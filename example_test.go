package bdi_test

import (
	"fmt"

	bdi "repro"
)

// The end-to-end pipeline over a generated web of sources.
func Example() {
	world := bdi.NewWorld(bdi.WorldConfig{Seed: 1, NumEntities: 30})
	web := bdi.BuildWeb(world, bdi.SourceConfig{Seed: 2, NumSources: 8, DirtLevel: 1})
	report, err := bdi.NewPipeline(bdi.PipelineConfig{Fuser: "accu"}).Run(web.Dataset)
	if err != nil {
		panic(err)
	}
	prf := bdi.EvalClusters(report.Clusters, web.Dataset.GroundTruthClusters())
	fmt.Printf("linkage F1 >= 0.9: %v\n", prf.F1 >= 0.9)
	// Output: linkage F1 >= 0.9: true
}

// Majority voting over conflicting claims.
func ExampleMajorityVote() {
	cs := bdi.NewClaimSet()
	item := bdi.Item{Entity: "flight-17", Attr: "gate"}
	cs.Add(bdi.Claim{Item: item, Source: "airport", Value: bdi.StringValue("B22")})
	cs.Add(bdi.Claim{Item: item, Source: "airline", Value: bdi.StringValue("B22")})
	cs.Add(bdi.Claim{Item: item, Source: "tracker", Value: bdi.StringValue("C10")})
	res, _ := bdi.MajorityVote{}.Fuse(cs)
	fmt.Println(res.Values[item])
	// Output: B22
}

// Identifier-rule matching: shared product ids force a match.
func ExampleRuleMatcher() {
	a := bdi.NewRecord("a", "s1").Set("pid", bdi.StringValue("X-100"))
	b := bdi.NewRecord("b", "s2").Set("pid", bdi.StringValue("X-100"))
	score, match := bdi.RuleMatcher{Exact: []string{"pid"}}.Match(a, b)
	fmt.Println(score, match)
	// Output: 1 true
}

// Token blocking groups records sharing title words; errors along the
// engine's chain stick to the engine instead of panicking.
func ExampleBlockingEngine() {
	records := []*bdi.Record{
		bdi.NewRecord("r1", "s").Set("title", bdi.StringValue("acme rocket")),
		bdi.NewRecord("r2", "s").Set("title", bdi.StringValue("acme skate")),
		bdi.NewRecord("r3", "s").Set("title", bdi.StringValue("zenix blender")),
	}
	eng := bdi.NewBlockingEngine(records, bdi.BlockingOpts{})
	blocks := eng.Blocks(bdi.TokenBlockingKey("title"))
	if err := eng.Err(); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(blocks.NumBlocks(), blocks.Pairs())
	// Output: 5 [{r1 r2}]
}

// Incremental linkage over a stream of records.
func ExampleIncrementalLinker() {
	linker := bdi.NewIncrementalLinker(bdi.TitleTokenKey, bdi.ThresholdMatcher{
		Comparator: bdi.UniformComparator(bdi.Jaccard, "title"),
		Threshold:  0.6,
	})
	src := &bdi.Source{ID: "s"}
	_, _ = linker.Insert(src, bdi.NewRecord("r1", "s").Set("title", bdi.StringValue("nova camera pro")))
	matched, _ := linker.Insert(src, bdi.NewRecord("r2", "s").Set("title", bdi.StringValue("nova camera pro x")))
	fmt.Println(matched)
	// Output: [r1]
}

// Swoosh merges records so accumulated evidence links what pairwise
// matching cannot.
func ExampleSwoosh() {
	r1 := bdi.NewRecord("r1", "s1").Set("pid1", bdi.StringValue("A"))
	r2 := bdi.NewRecord("r2", "s2").Set("pid1", bdi.StringValue("A")).Set("pid2", bdi.StringValue("B"))
	r3 := bdi.NewRecord("r3", "s3").Set("pid2", bdi.StringValue("B"))
	clusters, _, _ := bdi.Swoosh{Matcher: bdi.RuleMatcher{Exact: []string{"pid1", "pid2"}}}.
		Resolve([]*bdi.Record{r1, r2, r3})
	fmt.Println(len(clusters), len(clusters[0]))
	// Output: 1 3
}
