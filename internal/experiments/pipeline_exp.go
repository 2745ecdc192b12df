package experiments

import (
	"context"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/schema"
	"repro/internal/similarity"
	"repro/internal/temporal"
)

// AlignmentF1 scores a mediated schema against the generator's dialect
// ground truth: two source attributes correspond iff they rename the
// same canonical attribute (cross-source pairs only; single-category
// worlds make this unambiguous).
func AlignmentF1(web *datagen.Web, ms *schema.MediatedSchema) float64 {
	canonical := map[string]string{}
	for _, gs := range web.Sources {
		for canon, local := range gs.Dialect.Rename {
			canonical[gs.ID+"/"+local] = canon
		}
	}
	type saPair [2]string
	pred := map[saPair]bool{}
	for _, ma := range ms.Attrs {
		var keys []string
		for sa := range ma.Members {
			keys = append(keys, sa.String())
		}
		sort.Strings(keys)
		for i := 0; i < len(keys); i++ {
			for j := i + 1; j < len(keys); j++ {
				pred[saPair{keys[i], keys[j]}] = true
			}
		}
	}
	universe := make([]string, 0, len(ms.Of))
	for sa := range ms.Of {
		universe = append(universe, sa.String())
	}
	sort.Strings(universe)
	truth := map[saPair]bool{}
	for i := 0; i < len(universe); i++ {
		for j := i + 1; j < len(universe); j++ {
			a, b := universe[i], universe[j]
			if srcOf(a) == srcOf(b) {
				continue // per-source schemas are consistent by assumption
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

func srcOf(key string) string {
	if i := strings.IndexByte(key, '/'); i >= 0 {
		return key[:i]
	}
	return key
}

// E11Result is the structured output of E11.
type E11Result struct {
	// Accuracy[domain][fuser].
	Accuracy map[string]map[string]float64
}

// E11 — domain study: fusion-method accuracy on a high-copy "stock-like"
// domain vs a low-copy "flight-like" domain (shape of Li et al.
// VLDB'13: method choice matters where copying is rampant).
func E11(seed int64) (*Table, *E11Result, error) {
	domains := []struct {
		name string
		cfg  datagen.ClaimConfig
	}{
		{"stock-like (heavy copying)", datagen.ClaimConfig{
			Seed: seed, NumItems: 200, NumValues: 8,
			NumSources: 6, MinAccuracy: 0.5, MaxAccuracy: 0.85,
			NumCopiers: 8, CopyRate: 0.95, CopierSpread: 2,
		}},
		{"flight-like (independent)", datagen.ClaimConfig{
			Seed: seed + 1, NumItems: 200, NumValues: 8,
			NumSources: 14, MinAccuracy: 0.7, MaxAccuracy: 0.95,
		}},
	}
	res := &E11Result{Accuracy: map[string]map[string]float64{}}
	tab := &Table{ID: "E11", Title: "fusion methods across domain regimes", Columns: []string{"domain"}}
	for _, f := range standardFusers() {
		tab.Columns = append(tab.Columns, f.Name())
	}
	for _, dom := range domains {
		cw := datagen.BuildClaims(dom.cfg)
		row := []string{dom.name}
		res.Accuracy[dom.name] = map[string]float64{}
		for _, f := range standardFusers() {
			acc, err := fuserAccuracy(f, cw.Claims)
			if err != nil {
				return nil, nil, err
			}
			res.Accuracy[dom.name][f.Name()] = acc
			row = append(row, f3(acc))
		}
		tab.Rows = append(tab.Rows, row)
	}
	tab.Notes = "the method spread should be wide under heavy copying and narrow when sources are independent and accurate"
	return tab, res, nil
}

// E12Result is the structured output of E12.
type E12Result struct {
	EvolvingTemporalF1 float64
	EvolvingStaticF1   float64
	StableTemporalF1   float64
	StableStaticF1     float64
}

// E12 — temporal linkage: time-decayed vs static matching on evolving
// and stable entity populations.
func E12(seed int64) (*Table, *E12Result, error) {
	run := func(evolving float64) (tf1, sf1 float64) {
		w := datagen.NewWorld(datagen.WorldConfig{
			Seed: seed, NumEntities: 30, Categories: []string{"camera"},
		})
		// Sources are near-perfect observers so that value disagreement
		// comes from entity drift, not source error — E12 isolates the
		// temporal effect; source error is E1/E11's subject.
		tw := datagen.BuildTemporal(w, datagen.SourceConfig{
			Seed: seed + 2, NumSources: 4, DirtLevel: 0,
			IdentifierRate: 0, HeadFraction: 0.8, HeadCoverage: 0.8,
			MinAccuracy: 0.97, MaxAccuracy: 0.99,
			Heterogeneity: -1, // schemas stay canonical: E12 is not about alignment
		}, datagen.TemporalConfig{
			Seed: seed + 3, Epochs: 6, DriftRate: 0.9, EvolvingFraction: evolving,
		})
		union := tw.Union()
		m := temporal.NewMatcher(pipelineComparator())
		m.Threshold = 0.82
		m.Decay = 0.35
		m.AttrDecay = map[string]float64{"title": 0}
		records := union.Records()
		truth := union.GroundTruthClusters()
		tf1 = eval.Clusters(m.Cluster(records), truth).F1
		sf1 = eval.Clusters(m.StaticCluster(records), truth).F1
		return
	}
	res := &E12Result{}
	res.EvolvingTemporalF1, res.EvolvingStaticF1 = run(0.9)
	res.StableTemporalF1, res.StableStaticF1 = run(0.0001)
	tab := &Table{
		ID: "E12", Title: "temporal vs static linkage",
		Columns: []string{"population", "temporal F1", "static F1"},
		Rows: [][]string{
			{"evolving entities", f4(res.EvolvingTemporalF1), f4(res.EvolvingStaticF1)},
			{"stable entities", f4(res.StableTemporalF1), f4(res.StableStaticF1)},
		},
		Notes: "decay should pay off on evolving entities and cost nothing on stable ones",
	}
	return tab, res, nil
}

// E13Result is the structured output of E13. FusionSeq and
// FusionSpeedup re-fuse the pipeline's claims on one worker vs the
// default pool (byte-identical results either way).
type E13Result struct {
	Report        *core.Report
	LinkageF1     float64
	FusedItems    int
	FusionSeq     time.Duration
	FusionPar     time.Duration
	FusionSpeedup float64
}

// E13 — end-to-end pipeline: stage timings and integration quality on a
// full heterogeneous multi-category web. (What the feature cache and
// the interned blocking engine buy is measured where those layers are
// exercised alone: E9's cached-vs-uncached columns and E3's
// sequential-vs-engine columns.)
func E13(seed int64) (*Table, *E13Result, error) {
	w := datagen.NewWorld(datagen.WorldConfig{Seed: seed, NumEntities: 60})
	web := datagen.BuildWeb(w, datagen.SourceConfig{
		Seed: seed + 1, NumSources: 14, DirtLevel: 1,
		IdentifierRate: 0.85, Heterogeneity: 0.5,
		HeadFraction: 0.4, TailCoverage: 0.3, CopierFraction: 0.2,
	})
	rep, err := core.New(core.Config{Fuser: "accucopy"}).Run(web.Dataset)
	if err != nil {
		return nil, nil, err
	}
	res := &E13Result{
		Report:     rep,
		LinkageF1:  eval.Clusters(rep.Clusters, web.Dataset.GroundTruthClusters()).F1,
		FusedItems: len(rep.Fusion.Values),
	}
	fuserSeq, err := core.BuildFuser(context.Background(), "accucopy", 1, nil)
	if err != nil {
		return nil, nil, err
	}
	fuserPar, err := core.BuildFuser(context.Background(), "accucopy", 0, nil)
	if err != nil {
		return nil, nil, err
	}
	res.FusionSeq, res.FusionPar, res.FusionSpeedup, err = timeFuse(fuserSeq, fuserPar, rep.Claims)
	if err != nil {
		return nil, nil, err
	}
	tab := &Table{
		ID: "E13", Title: "end-to-end pipeline on a heterogeneous web",
		Columns: []string{"metric", "value"},
	}
	tab.Rows = append(tab.Rows,
		[]string{"records", d1(web.Dataset.NumRecords())},
		[]string{"sources", d1(web.Dataset.NumSources())},
		[]string{"candidates", d1(rep.Candidates)},
		[]string{"matched pairs", d1(len(rep.Matched))},
		[]string{"clusters", d1(len(rep.Clusters))},
		[]string{"linkage F1", f4(res.LinkageF1)},
		[]string{"mediated attrs", d1(len(rep.Schema.Attrs))},
		[]string{"transforms", d1(len(rep.Transforms))},
		[]string{"claims", d1(rep.Claims.Len())},
		[]string{"fused items", d1(res.FusedItems)},
	)
	for _, stage := range []string{"blocking", "matching", "clustering", "alignment", "fusion"} {
		tab.Rows = append(tab.Rows, []string{stage + " time", rep.StageTime[stage].String()})
	}
	tab.Rows = append(tab.Rows,
		[]string{"fusion time (1 worker)", res.FusionSeq.String()},
		[]string{"fusion time (parallel engine)", res.FusionPar.String()},
		[]string{"fusion parallel speedup", f3(res.FusionSpeedup) + "x"},
	)
	return tab, res, nil
}

// E14Result is the structured output of E14.
type E14Result struct {
	LinkageFirstAlignF1 float64
	SchemaFirstAlignF1  float64
	LinkageFirstLinkF1  float64
	SchemaFirstLinkF1   float64
}

// E14 — ordering ablation: linkage-before-alignment vs the traditional
// schema-first ordering on an identifier-rich single-category web.
func E14(seed int64) (*Table, *E14Result, error) {
	// Average over several generated webs: the orderings differ by a
	// few clustering decisions on any single world, so single-seed
	// comparisons are noisy.
	seeds := []int64{seed, seed + 101, seed + 202}
	res := &E14Result{}
	for _, s := range seeds {
		w := datagen.NewWorld(datagen.WorldConfig{
			Seed: s, NumEntities: 40, Categories: []string{"camera"},
		})
		web := datagen.BuildWeb(w, datagen.SourceConfig{
			Seed: s + 1, NumSources: 10, DirtLevel: 1,
			IdentifierRate: 0.95, Heterogeneity: 0.6,
			HeadFraction: 0.4, TailCoverage: 0.3,
		})
		truth := web.Dataset.GroundTruthClusters()
		for _, ord := range []core.Order{core.LinkageFirst, core.SchemaFirst} {
			rep, err := core.New(core.Config{Order: ord}).Run(web.Dataset)
			if err != nil {
				return nil, nil, err
			}
			af1 := AlignmentF1(web, rep.Schema)
			lf1 := eval.Clusters(rep.Clusters, truth).F1
			if ord == core.LinkageFirst {
				res.LinkageFirstAlignF1 += af1
				res.LinkageFirstLinkF1 += lf1
			} else {
				res.SchemaFirstAlignF1 += af1
				res.SchemaFirstLinkF1 += lf1
			}
		}
	}
	n := float64(len(seeds))
	res.LinkageFirstAlignF1 /= n
	res.LinkageFirstLinkF1 /= n
	res.SchemaFirstAlignF1 /= n
	res.SchemaFirstLinkF1 /= n
	tab := &Table{
		ID: "E14", Title: "pipeline ordering ablation (mean of 3 worlds)",
		Columns: []string{"order", "alignment F1", "linkage F1"},
		Rows: [][]string{
			{core.LinkageFirst.String(), f4(res.LinkageFirstAlignF1), f4(res.LinkageFirstLinkF1)},
			{core.SchemaFirst.String(), f4(res.SchemaFirstAlignF1), f4(res.SchemaFirstLinkF1)},
		},
		Notes: "with identifiers present, linking first should align attributes at least as well as aligning blind",
	}
	return tab, res, nil
}

// pipelineComparator is the record comparator used by the temporal
// experiment: title is identity-stable, the drifting attributes evolve.
func pipelineComparator() *similarity.RecordComparator {
	return similarity.NewRecordComparator(
		similarity.FieldWeight{Attr: "title", Weight: 2, Metric: similarity.Jaccard},
		similarity.FieldWeight{Attr: "camera_brand", Weight: 1},
		similarity.FieldWeight{Attr: "camera_color", Weight: 1},
		similarity.FieldWeight{Attr: "camera_weight_g", Weight: 1},
		similarity.FieldWeight{Attr: "camera_price_usd", Weight: 1},
	)
}
