package experiments

import (
	"context"
	"fmt"

	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/fusion"
	"repro/internal/schema"
)

// E15Result is the structured output of E15.
type E15Result struct {
	K          []int     // sources consulted (anytime curve x-axis)
	Accuracy   []float64 // accuracy at each prefix
	MeanProbes float64   // online protocol's mean probes per item
	OnlineAcc  float64   // online protocol's final accuracy
	NumSources int
}

// E15 — online fusion: the anytime accuracy curve over the
// best-sources-first prefix, and the early-termination protocol's probe
// savings at (near-)full accuracy.
func E15(seed int64) (*Table, *E15Result, error) {
	cw := datagen.BuildClaims(datagen.ClaimConfig{
		Seed: seed, NumItems: 250, NumValues: 5,
		NumSources: 16, MinAccuracy: 0.4, MaxAccuracy: 0.95,
	})
	on := fusion.Online{Accuracy: cw.TrueAccuracy}
	res := &E15Result{NumSources: 16}
	tab := &Table{
		ID: "E15", Title: "online fusion: anytime accuracy and probe savings",
		Columns: []string{"sources consulted", "accuracy"},
	}
	for _, k := range []int{1, 2, 4, 8, 12, 16} {
		r, err := on.FuseWithPrefix(cw.Claims, k)
		if err != nil {
			return nil, nil, err
		}
		acc, _ := eval.FusionAccuracy(r.Values, cw.Claims)
		res.K = append(res.K, k)
		res.Accuracy = append(res.Accuracy, acc)
		tab.Rows = append(tab.Rows, []string{d1(k), f4(acc)})
	}
	or, err := on.FuseOnline(cw.Claims)
	if err != nil {
		return nil, nil, err
	}
	res.OnlineAcc, _ = eval.FusionAccuracy(or.Values, cw.Claims)
	var sum float64
	for _, p := range or.Probes {
		sum += float64(p)
	}
	if len(or.Probes) > 0 {
		res.MeanProbes = sum / float64(len(or.Probes))
	}
	tab.Notes = fmt.Sprintf(
		"early-termination protocol: accuracy %.4f probing %.1f of %d sources on average",
		res.OnlineAcc, res.MeanProbes, res.NumSources)
	return tab, res, nil
}

// E16Result is the structured output of E16.
type E16Result struct {
	Budgets []int
	F1      []float64 // alignment F1 after each question budget
	BaseF1  float64   // no-feedback baseline
}

// E16 — pay-as-you-go alignment: attribute-correspondence F1 as the
// oracle question budget grows (the dataspace programme's core curve).
func E16(seed int64) (*Table, *E16Result, error) {
	w := datagen.NewWorld(datagen.WorldConfig{
		Seed: seed, NumEntities: 40, Categories: []string{"camera"},
	})
	web := datagen.BuildWeb(w, datagen.SourceConfig{
		Seed: seed + 1, NumSources: 8, DirtLevel: 1,
		IdentifierRate: 0.95, Heterogeneity: 0.7,
		HeadFraction: 0.4, TailCoverage: 0.3,
	})
	profiles := schema.Profiler{}.Build(web.Dataset)

	// Oracle from the generator's dialect ground truth.
	canonical := map[schema.SourceAttr]string{}
	for _, gs := range web.Sources {
		for canon, local := range gs.Dialect.Rename {
			canonical[schema.SourceAttr{Source: gs.ID, Attr: local}] = canon
		}
	}
	oracle := func(a, b schema.SourceAttr) bool {
		ca, cb := canonical[a], canonical[b]
		return ca != "" && ca == cb
	}

	base, err := (schema.Aligner{Threshold: 0.5}).Align(profiles)
	if err != nil {
		return nil, nil, err
	}
	res := &E16Result{BaseF1: AlignmentF1(web, base)}
	tab := &Table{
		ID: "E16", Title: "pay-as-you-go alignment: F1 vs oracle questions",
		Columns: []string{"questions", "alignment F1"},
	}
	tab.Rows = append(tab.Rows, []string{"0 (baseline)", f4(res.BaseF1)})
	for _, budget := range []int{5, 15, 30, 60} {
		fb, err := (schema.Feedback{Threshold: 0.5, Budget: budget}).Run(profiles, oracle)
		if err != nil {
			return nil, nil, err
		}
		f1 := AlignmentF1(web, fb.Schema)
		res.Budgets = append(res.Budgets, budget)
		res.F1 = append(res.F1, f1)
		tab.Rows = append(tab.Rows, []string{d1(budget), f4(f1)})
	}
	tab.Notes = "confirming the most uncertain correspondences should lift F1 monotonically toward 1"
	return tab, res, nil
}

// E17Result is the structured output of E17.
type E17Result struct {
	// F1 per configuration of the ablation.
	AlignFull       float64 // linkage evidence with ratio stability
	AlignNoRatio    float64 // linkage evidence without ratio stability
	FuseBootstrap   float64 // accucopy with truth-free bootstrap pass
	FuseNoBootstrap float64 // accucopy detecting with converged estimates only
}

// E17 — design-choice ablations DESIGN.md calls out: (a) ratio-stability
// evidence inside linkage-aware alignment, (b) the truth-free bootstrap
// pass inside ACCUCOPY's copy detection.
func E17(seed int64) (*Table, *E17Result, error) {
	res := &E17Result{}

	// (a) Alignment with and without ratio stability: compare the full
	// Blend against agreement-rate-only evidence on unit-shifted webs,
	// averaged over three worlds (per-world clustering noise can mask
	// the channel on a single seed).
	alignSeeds := []int64{seed, seed + 35, seed + 58}
	for _, s := range alignSeeds {
		w := datagen.NewWorld(datagen.WorldConfig{
			Seed: s, NumEntities: 40, Categories: []string{"camera"},
		})
		web := datagen.BuildWeb(w, datagen.SourceConfig{
			Seed: s + 1, NumSources: 10, DirtLevel: 1,
			IdentifierRate: 0.95, Heterogeneity: 0.8, // heavy unit changes
			HeadFraction: 0.4, TailCoverage: 0.3,
		})
		rep, err := core.New(core.Config{}).Run(web.Dataset)
		if err != nil {
			return nil, nil, err
		}
		res.AlignFull += AlignmentF1(web, rep.Schema)

		profiles := schema.Profiler{}.Build(web.Dataset)
		cols, err := schema.NewColumns(context.Background(), web.Dataset, profiles)
		if err != nil {
			return nil, nil, err
		}
		le, err := schema.NewLinkageEvidence(context.Background(), cols, rep.Clusters, 0)
		if err != nil {
			return nil, nil, err
		}
		msNoRatio, err := (schema.Aligner{Evidence: le.BlendAgreementOnly, Threshold: 0.5}).Align(profiles)
		if err != nil {
			return nil, nil, err
		}
		res.AlignNoRatio += AlignmentF1(web, msNoRatio)
	}
	res.AlignFull /= float64(len(alignSeeds))
	res.AlignNoRatio /= float64(len(alignSeeds))

	// (b) ACCUCOPY with vs without the truth-free bootstrap, on the
	// colluding-majority workload where the bootstrap matters.
	cw := datagen.BuildClaims(datagen.ClaimConfig{
		Seed: seed + 7, NumItems: 200, NumValues: 8,
		NumSources: 4, MinAccuracy: 0.8, MaxAccuracy: 0.95,
		NumCopiers: 6, CopyRate: 0.98, CopierSpread: 1,
	})
	full := fusion.ACCUCOPY{}
	r1, err := full.Fuse(cw.Claims)
	if err != nil {
		return nil, nil, err
	}
	res.FuseBootstrap, _ = eval.FusionAccuracy(r1.Values, cw.Claims)
	noBoot := fusion.ACCUCOPY{DisableBootstrap: true}
	r2, err := noBoot.Fuse(cw.Claims)
	if err != nil {
		return nil, nil, err
	}
	res.FuseNoBootstrap, _ = eval.FusionAccuracy(r2.Values, cw.Claims)

	tab := &Table{
		ID: "E17", Title: "ablations: ratio-stability evidence and detection bootstrap",
		Columns: []string{"configuration", "metric", "value"},
		Rows: [][]string{
			{"alignment + ratio stability", "align F1", f4(res.AlignFull)},
			{"alignment, agreement only", "align F1", f4(res.AlignNoRatio)},
			{"accucopy + bootstrap", "fusion acc", f4(res.FuseBootstrap)},
			{"accucopy, no bootstrap", "fusion acc", f4(res.FuseNoBootstrap)},
		},
		Notes: "each removed design choice should cost quality on the workload it was designed for",
	}
	return tab, res, nil
}

// E18Result is the structured output of E18.
type E18Result struct {
	Quality map[string]eval.BlockingQuality
}

// E18 — LSH vs engineered blocking: MinHash banding against token and
// sorted-neighbourhood blocking on the standard dirty corpus.
func E18(seed int64) (*Table, *E18Result, error) {
	web := dirtyWeb(seed, 80, 12, 2)
	records := web.Dataset.Records()
	truth := web.Dataset.GroundTruthClusters().Pairs()
	n := len(records)
	methods := []struct {
		name string
		b    blocking.Blocker
	}{
		{"token(title)", blocking.Standard{Key: blocking.TokenKey("title"), MaxBlock: 200}},
		{"sn(w=5)", blocking.SortedNeighborhood{Keys: []blocking.KeyFunc{blocking.AttrExactKey("title")}, Window: 5}},
		{"phonetic(nysiis)", blocking.Standard{Key: blocking.PhoneticKey("title", "nysiis"), MaxBlock: 200}},
		{"minhash(8x4)", blocking.MinHashLSH{Bands: 8, Rows: 4, Seed: uint64(seed)}},
		{"minhash(12x3)", blocking.MinHashLSH{Bands: 12, Rows: 3, Seed: uint64(seed)}},
		{"minhash(16x2)", blocking.MinHashLSH{Bands: 16, Rows: 2, Seed: uint64(seed)}},
	}
	res := &E18Result{Quality: map[string]eval.BlockingQuality{}}
	tab := &Table{
		ID: "E18", Title: "LSH vs engineered blocking",
		Columns: []string{"method", "candidates", "RR", "PC", "PQ"},
	}
	for _, m := range methods {
		cands, err := pairsOf(records, m.b)
		if err != nil {
			return nil, nil, err
		}
		q := eval.Blocking(cands, truth, n)
		res.Quality[m.name] = q
		tab.Rows = append(tab.Rows, []string{m.name, d1(q.Candidates), f4(q.ReductionRatio), f4(q.PairCompleteness), f4(q.PairQuality)})
	}
	tab.Notes = "more bands / fewer rows lowers the LSH threshold: PC rises, RR falls"
	return tab, res, nil
}
