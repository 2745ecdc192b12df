package bdi

import (
	"bytes"
	"context"
	"errors"
	"testing"
)

// Facade tests: the public API is the contract downstream users build
// against, so exercise each exported surface end-to-end.

func TestFacadeQuickstartFlow(t *testing.T) {
	world := NewWorld(WorldConfig{Seed: 1, NumEntities: 40})
	web := BuildWeb(world, SourceConfig{Seed: 2, NumSources: 10, DirtLevel: 1})
	rep, err := NewPipeline(PipelineConfig{Fuser: "accu"}).Run(web.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Clusters) == 0 || len(rep.Fusion.Values) == 0 {
		t.Fatal("pipeline produced nothing")
	}
	prf := EvalClusters(rep.Clusters, web.Dataset.GroundTruthClusters())
	if prf.F1 < 0.8 {
		t.Errorf("facade pipeline F1 = %f", prf.F1)
	}
}

func TestFacadeValueHelpers(t *testing.T) {
	if !ParseValue("3.5").Equal(NumberValue(3.5)) {
		t.Error("ParseValue number")
	}
	if StringValue("").Kind != 0 {
		t.Error("empty string should be null-kind")
	}
	r := NewRecord("r1", "s1")
	r.Set("x", BoolValue(true))
	if !r.Get("x").Bool {
		t.Error("record set/get")
	}
}

func TestFacadeDatasetIO(t *testing.T) {
	d := NewDataset()
	if err := d.AddSource(&Source{ID: "s"}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddRecord(NewRecord("r", "s").Set("title", StringValue("x y"))); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d2.NumRecords() != 1 {
		t.Error("JSON round trip lost records")
	}
}

func TestFacadeStageComposition(t *testing.T) {
	// Compose blocking + matching + clustering through the facade only.
	d := NewDataset()
	_ = d.AddSource(&Source{ID: "a"})
	_ = d.AddSource(&Source{ID: "b"})
	_ = d.AddRecord(NewRecord("r1", "a").Set("title", StringValue("acme rocket skate")))
	_ = d.AddRecord(NewRecord("r2", "b").Set("title", StringValue("acme rocket skate pro")))
	_ = d.AddRecord(NewRecord("r3", "b").Set("title", StringValue("zenix blender")))

	eng := NewBlockingEngine(d.Records(), BlockingOpts{})
	cands := StandardBlocking{Key: TokenBlockingKey("title")}.Candidates(eng)
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	matched, err := MatchStream(context.Background(), d, cands, ThresholdMatcher{
		Comparator: UniformComparator(Jaccard, "title"),
		Threshold:  0.6,
	}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	clusters := ConnectedComponents{}.Cluster([]string{"r1", "r2", "r3"}, matched)
	if len(clusters) != 2 {
		t.Errorf("clusters = %v", clusters)
	}
}

func TestFacadeFusers(t *testing.T) {
	for _, name := range []string{"vote", "truthfinder", "accu", "popaccu", "accucopy"} {
		f, err := BuildFuser(name)
		if err != nil {
			t.Fatal(err)
		}
		cs := NewClaimSet()
		it := Item{Entity: "e", Attr: "v"}
		cs.Add(Claim{Item: it, Source: "s1", Value: StringValue("x")})
		cs.Add(Claim{Item: it, Source: "s2", Value: StringValue("x")})
		cs.Add(Claim{Item: it, Source: "s3", Value: StringValue("y")})
		res, err := f.Fuse(cs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Values[it].Equal(StringValue("x")) {
			t.Errorf("%s fused %v", name, res.Values[it])
		}
	}
}

func TestFacadeTemporal(t *testing.T) {
	m := NewTemporalMatcher(UniformComparator(Jaccard, "title"))
	a := NewRecord("a", "s").Set("title", StringValue("same thing")).Set("epoch", NumberValue(0))
	b := NewRecord("b", "s").Set("title", StringValue("same thing")).Set("epoch", NumberValue(3))
	if _, ok := m.Match(a, b); !ok {
		t.Error("identical titles must match across epochs")
	}
}

func TestFacadeResilientIngestion(t *testing.T) {
	world := NewWorld(WorldConfig{Seed: 5, NumEntities: 30})
	web := BuildWeb(world, SourceConfig{Seed: 6, NumSources: 8})

	// Every source dead: ingestion degrades to an empty fleet and says so.
	fleet := WrapAllFaults(SourcesFromWeb(web), FaultConfig{Seed: 9, DeadRate: 1})
	_, rep, err := NewIngestor(IngestConfig{MinSources: 1}).Ingest(context.Background(), fleet)
	if !errors.Is(err, ErrTooFewSources) {
		t.Fatalf("all-dead fleet: err = %v, want ErrTooFewSources", err)
	}
	if rep.Succeeded != 0 || len(rep.Dropped) != rep.Total {
		t.Errorf("all-dead fleet: %d ok, %d/%d dropped", rep.Succeeded, len(rep.Dropped), rep.Total)
	}

	// Clean fleet: everything survives and the dataset feeds the pipeline.
	d, rep, err := NewIngestor(IngestConfig{}).Ingest(context.Background(), SourcesFromWeb(web))
	if err != nil || rep.Succeeded != rep.Total {
		t.Fatalf("clean fleet: %d/%d ok, err = %v", rep.Succeeded, rep.Total, err)
	}
	if _, err := NewPipeline(PipelineConfig{}).RunCtx(context.Background(), d); err != nil {
		t.Fatalf("pipeline over ingested dataset: %v", err)
	}
}

func TestFacadeSentinelErrors(t *testing.T) {
	if _, err := BuildFuser("no-such-fuser"); !errors.Is(err, ErrUnknownFuser) {
		t.Errorf("BuildFuser err = %v", err)
	}
	if err := (PipelineConfig{Order: Order(99)}).Validate(); !errors.Is(err, ErrUnknownOrder) {
		t.Errorf("Validate order err = %v", err)
	}
	if err := (PipelineConfig{Clusterer: "no-such"}).Validate(); !errors.Is(err, ErrUnknownClusterer) {
		t.Errorf("Validate clusterer err = %v", err)
	}
}

func TestFacadeOrderConstants(t *testing.T) {
	if LinkageFirst.String() != "linkage-first" || SchemaFirst.String() != "schema-first" {
		t.Error("order constants broken")
	}
}
