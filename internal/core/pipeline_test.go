package core

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/eval"
)

func testWeb(t *testing.T, dirt int, identRate float64) *datagen.Web {
	t.Helper()
	w := datagen.NewWorld(datagen.WorldConfig{Seed: 71, NumEntities: 40})
	return datagen.BuildWeb(w, datagen.SourceConfig{
		Seed: 72, NumSources: 10, DirtLevel: dirt,
		IdentifierRate: identRate, Heterogeneity: 0.6,
		HeadFraction: 0.4, TailCoverage: 0.3,
	})
}

func TestPipelineLinkageFirstEndToEnd(t *testing.T) {
	web := testWeb(t, 1, 0.9)
	rep, err := New(Config{}).Run(web.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Candidates == 0 || len(rep.Matched) == 0 {
		t.Fatalf("no candidates/matches: %d/%d", rep.Candidates, len(rep.Matched))
	}
	// Linkage quality against ground truth.
	prf := eval.Clusters(rep.Clusters, web.Dataset.GroundTruthClusters())
	if prf.F1 < 0.8 {
		t.Errorf("linkage F1 = %f, want >= 0.8 (%v)", prf.F1, prf)
	}
	if rep.Schema == nil || len(rep.Schema.Attrs) == 0 {
		t.Fatal("no mediated schema")
	}
	if rep.Normalized.NumRecords() != web.Dataset.NumRecords() {
		t.Error("normalisation must preserve record count")
	}
	if rep.Claims.Len() == 0 || rep.Fusion == nil || len(rep.Fusion.Values) == 0 {
		t.Fatal("fusion produced nothing")
	}
	for _, stage := range []string{"blocking", "matching", "clustering", "alignment", "fusion"} {
		if _, ok := rep.StageTime[stage]; !ok {
			t.Errorf("missing stage timing %q", stage)
		}
	}
}

func TestPipelineSchemaFirstRuns(t *testing.T) {
	web := testWeb(t, 1, 0.9)
	rep, err := New(Config{Order: SchemaFirst}).Run(web.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Clusters) == 0 || rep.Fusion == nil {
		t.Fatal("schema-first pipeline incomplete")
	}
	if Order(0).String() != "linkage-first" || SchemaFirst.String() != "schema-first" {
		t.Error("order names")
	}
}

func TestLinkageFirstBeatsSchemaFirstAlignment(t *testing.T) {
	// The tutorial's E14 claim: with identifiers present, linking first
	// yields better attribute alignment than aligning blind. Evaluated
	// on a single-category world so that the generator's canonical
	// schema is an unambiguous alignment ground truth (across
	// categories one source legitimately renames camera_color and
	// tv_color to different local names, which has no single correct
	// clustering).
	w := datagen.NewWorld(datagen.WorldConfig{
		Seed: 71, NumEntities: 40, Categories: []string{"camera"}, AttrsPerCat: 6,
	})
	web := datagen.BuildWeb(w, datagen.SourceConfig{
		Seed: 72, NumSources: 10, DirtLevel: 1,
		IdentifierRate: 0.95, Heterogeneity: 0.6,
		HeadFraction: 0.4, TailCoverage: 0.3,
	})
	lf, err := New(Config{Order: LinkageFirst}).Run(web.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := New(Config{Order: SchemaFirst}).Run(web.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	lfF1 := alignmentF1(web, lf)
	sfF1 := alignmentF1(web, sf)
	if lfF1 < sfF1 {
		t.Errorf("linkage-first alignment F1 %f must be >= schema-first %f", lfF1, sfF1)
	}
	if lfF1 < 0.5 {
		t.Errorf("linkage-first alignment F1 = %f, too low", lfF1)
	}
}

// alignmentF1 scores the mediated schema against the generator's
// ground-truth dialect: two source attributes truly correspond iff they
// rename the same canonical concept. Canonical names are compared by
// suffix ("camera_color" and "tv_color" are both the concept "color":
// they share synonym pools and value domains, so clustering them is
// semantically correct).
func alignmentF1(web *datagen.Web, rep *Report) float64 {
	canonical := map[string]string{} // "src/localAttr" → canonical concept
	for _, gs := range web.Sources {
		for canon, local := range gs.Dialect.Rename {
			concept := canon
			if i := indexByte(canon, '_'); i >= 0 {
				concept = canon[i+1:]
			}
			canonical[gs.ID+"/"+local] = concept
		}
	}
	type saPair [2]string
	pred := map[saPair]bool{}
	for _, ma := range rep.Schema.Attrs {
		var keys []string
		for sa := range ma.Members {
			keys = append(keys, sa.String())
		}
		for i := 0; i < len(keys); i++ {
			for j := i + 1; j < len(keys); j++ {
				a, b := keys[i], keys[j]
				if b < a {
					a, b = b, a
				}
				pred[saPair{a, b}] = true
			}
		}
	}
	// Truth pairs: all cross-source attr pairs sharing a canonical name,
	// restricted to attrs that actually appear in the schema's universe.
	universe := map[string]bool{}
	for sa := range rep.Schema.Of {
		universe[sa.String()] = true
	}
	var keys []string
	for k := range universe {
		keys = append(keys, k)
	}
	truth := map[saPair]bool{}
	for i := 0; i < len(keys); i++ {
		for j := 0; j < len(keys); j++ {
			if i == j {
				continue
			}
			a, b := keys[i], keys[j]
			if b < a {
				continue
			}
			// Same-source pairs are excluded: per-source schemas are
			// consistent by assumption, so the aligner never merges
			// them and they are not part of the correspondence task.
			if a[:indexByte(a, '/')] == b[:indexByte(b, '/')] {
				continue
			}
			ca, cb := canonical[a], canonical[b]
			if ca != "" && ca == cb {
				truth[saPair{a, b}] = true
			}
		}
	}
	tp := 0
	for p := range pred {
		if truth[p] {
			tp++
		}
	}
	if len(pred) == 0 || len(truth) == 0 {
		return 0
	}
	prec := float64(tp) / float64(len(pred))
	rec := float64(tp) / float64(len(truth))
	if prec+rec == 0 {
		return 0
	}
	return 2 * prec * rec / (prec + rec)
}

func TestPipelineFuserVariants(t *testing.T) {
	web := testWeb(t, 1, 0.9)
	for _, f := range []string{"vote", "truthfinder", "accu", "popaccu", "accucopy"} {
		rep, err := New(Config{Fuser: f}).Run(web.Dataset)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if len(rep.Fusion.Values) == 0 {
			t.Errorf("%s: no fused values", f)
		}
	}
	if _, err := BuildFuser(nil, "bogus", 0, nil); err == nil {
		t.Error("unknown fuser must error")
	}
}

func TestPipelineClustererVariants(t *testing.T) {
	web := testWeb(t, 1, 0.9)
	for _, c := range []string{"components", "center", "merge", "correlation", "swoosh"} {
		rep, err := New(Config{Clusterer: c}).Run(web.Dataset)
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		if len(rep.Clusters) == 0 {
			t.Errorf("%s: no clusters", c)
		}
	}
}

func TestPipelineMetaBlockingReducesCandidates(t *testing.T) {
	web := testWeb(t, 1, 0.9)
	plain, err := New(Config{}).Run(web.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := New(Config{MetaBlock: true}).Run(web.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Candidates >= plain.Candidates {
		t.Errorf("meta-blocking candidates %d must be < plain %d", meta.Candidates, plain.Candidates)
	}
	// Quality must not collapse.
	prf := eval.Clusters(meta.Clusters, web.Dataset.GroundTruthClusters())
	if prf.F1 < 0.7 {
		t.Errorf("meta-blocked linkage F1 = %f", prf.F1)
	}
}

func TestPipelineFellegiSunterMode(t *testing.T) {
	// Unsupervised Fellegi-Sunter over heterogeneous multi-category
	// sources is deliberately conservative: it stays high-precision but
	// recalls less than identifier-rule matching — which is the
	// tutorial's point about identifiers being the strongest linkage
	// signal in the product domain. Assert the precision property and a
	// sane F1 floor rather than parity with the rule matcher.
	web := testWeb(t, 1, 0.9)
	rep, err := New(Config{FellegiSunter: true}).Run(web.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	prf := eval.Clusters(rep.Clusters, web.Dataset.GroundTruthClusters())
	if prf.Precision < 0.85 {
		t.Errorf("FS pipeline precision = %f, want >= 0.85", prf.Precision)
	}
	if prf.F1 < 0.45 {
		t.Errorf("FS pipeline F1 = %f, want >= 0.45", prf.F1)
	}
	rule, err := New(Config{}).Run(web.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	rulePrf := eval.Clusters(rule.Clusters, web.Dataset.GroundTruthClusters())
	if rulePrf.F1 <= prf.F1 {
		t.Errorf("identifier rule (%f) should beat unsupervised FS (%f) here", rulePrf.F1, prf.F1)
	}
}

func TestPipelineEmptyDataset(t *testing.T) {
	if _, err := New(Config{}).Run(data.NewDataset()); err == nil {
		t.Error("empty dataset must error")
	}
	if _, err := New(Config{}).Run(nil); err == nil {
		t.Error("nil dataset must error")
	}
}

func indexByte(s string, c byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == c {
			return i
		}
	}
	return -1
}

func TestConfigValidate(t *testing.T) {
	web := testWeb(t, 1, 0.9)
	// Note: a zero threshold means "use the default" and resolves before
	// validation; explicit zero is spelled ZeroThreshold. Over-range
	// values, other negatives, unknown component names and unknown stage
	// orders must all fail.
	cases := []Config{
		{Clusterer: "bogus"},
		{Fuser: "bogus"},
		{MatchThreshold: 1.5},
		{MatchThreshold: -0.2},
		{Order: Order(7)},
	}
	for i, cfg := range cases {
		if _, err := New(cfg).Run(web.Dataset); err == nil {
			t.Errorf("case %d: invalid config must error", i)
		}
	}
	if err := (Config{Clusterer: "center", Fuser: "accu"}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if err := (Config{MatchThreshold: ZeroThreshold}).Validate(); err != nil {
		t.Errorf("ZeroThreshold rejected: %v", err)
	}
}

func TestConfigThresholdSentinel(t *testing.T) {
	// Zero value resolves to the documented default...
	if def := New(Config{}).Config(); def.MatchThreshold != 0.6 {
		t.Errorf("zero-value threshold resolved to %v, want 0.6", def.MatchThreshold)
	}
	// ...while ZeroThreshold pins a literal 0, which defaults() used to
	// clobber back to the default.
	if zero := New(Config{MatchThreshold: ZeroThreshold}).Config(); zero.MatchThreshold != 0 {
		t.Errorf("ZeroThreshold resolved to %v, want 0", zero.MatchThreshold)
	}
	// Explicit in-range values pass through untouched.
	if set := New(Config{MatchThreshold: 0.72}).Config(); set.MatchThreshold != 0.72 {
		t.Errorf("explicit threshold resolved to %v, want 0.72", set.MatchThreshold)
	}
}

func TestOrderStringUnknown(t *testing.T) {
	if got := LinkageFirst.String(); got != "linkage-first" {
		t.Errorf("LinkageFirst = %q", got)
	}
	if got := SchemaFirst.String(); got != "schema-first" {
		t.Errorf("SchemaFirst = %q", got)
	}
	if got := Order(7).String(); got != "order(7)" {
		t.Errorf("Order(7) = %q, must not masquerade as a valid ordering", got)
	}
}

// TestParseOrderRoundTrip: ParseOrder inverts Order.String on the valid
// orders and rejects everything else with ErrUnknownOrder.
func TestParseOrderRoundTrip(t *testing.T) {
	for _, o := range []Order{LinkageFirst, SchemaFirst} {
		got, err := ParseOrder(o.String())
		if err != nil || got != o {
			t.Errorf("ParseOrder(%q) = %v, %v; want %v", o.String(), got, err, o)
		}
	}
	for _, name := range []string{"", "Linkage-First", "order(7)", Order(7).String(), "schema_first"} {
		if _, err := ParseOrder(name); !errors.Is(err, ErrUnknownOrder) {
			t.Errorf("ParseOrder(%q) error = %v, want ErrUnknownOrder", name, err)
		}
	}
}

// TestPipelineAlignmentIdenticalAcrossWorkers: the alignment stage shards
// its evidence scan and fills its matrix on the worker pool; its three
// products must not depend on how many workers there are, under either
// stage order.
func TestPipelineAlignmentIdenticalAcrossWorkers(t *testing.T) {
	web := testWeb(t, 1, 0.9)
	for _, order := range []Order{LinkageFirst, SchemaFirst} {
		var want *Report
		for _, workers := range []int{1, 2, 8} {
			rep, err := New(Config{Order: order, Workers: workers}).Run(web.Dataset)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = rep
				continue
			}
			if !reflect.DeepEqual(rep.Schema, want.Schema) {
				t.Errorf("%v workers=%d: mediated schema differs from workers=1", order, workers)
			}
			if !reflect.DeepEqual(rep.Transforms, want.Transforms) {
				t.Errorf("%v workers=%d: transforms differ from workers=1", order, workers)
			}
			if !reflect.DeepEqual(rep.Normalized.Records(), want.Normalized.Records()) {
				t.Errorf("%v workers=%d: normalised records differ from workers=1", order, workers)
			}
		}
	}
}
