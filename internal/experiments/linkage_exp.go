package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/blocking"
	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/fusion"
	"repro/internal/linkage"
	"repro/internal/schema"
	"repro/internal/similarity"
	"repro/internal/sourcesel"
)

// E6Result is the structured output of E6.
type E6Result struct {
	// PRF[clusterer] over the noisy match graph.
	PRF map[string]eval.PRF
}

// E6 — clustering choice on a noisy match graph: connected components
// vs center vs merge-center vs correlation clustering.
func E6(seed int64) (*Table, *E6Result, error) {
	web := dirtyWeb(seed, 80, 12, 2)
	d := web.Dataset
	records := d.Records()
	truth := d.GroundTruthClusters()

	// A deliberately loose matcher creates the noisy graph clustering
	// must cope with.
	cands, err := pairsOf(records, blocking.Standard{Key: blocking.TokenKey("title"), MaxBlock: 200})
	if err != nil {
		return nil, nil, err
	}
	m := linkage.ThresholdMatcher{
		Comparator: similarity.UniformComparator(similarity.Jaccard, "title"),
		Threshold:  0.45,
	}
	edges, err := linkage.MatchStreamCtx(context.Background(), d, linkage.PairSlice(cands), m, 4, nil)
	if err != nil {
		return nil, nil, err
	}
	var ids []string
	for _, r := range records {
		ids = append(ids, r.ID)
	}
	clusterers := []struct {
		name string
		c    linkage.Clusterer
	}{
		{"components", linkage.ConnectedComponents{}},
		{"center", linkage.Center{}},
		{"merge-center", linkage.MergeCenter{}},
		{"correlation", linkage.CorrelationClustering{MinScore: 0.45}},
	}
	res := &E6Result{PRF: map[string]eval.PRF{}}
	tab := &Table{
		ID: "E6", Title: "clustering algorithms on a noisy match graph",
		Columns: []string{"clusterer", "P", "R", "F1", "clusters"},
	}
	for _, c := range clusterers {
		got := c.c.Cluster(ids, edges)
		prf := eval.Clusters(got, truth)
		res.PRF[c.name] = prf
		tab.Rows = append(tab.Rows, []string{
			c.name, f4(prf.Precision), f4(prf.Recall), f4(prf.F1), d1(len(got)),
		})
	}
	tab.Notes = "connected components maximises recall; center-family trades recall for precision"
	return tab, res, nil
}

// E7Result is the structured output of E7.
type E7Result struct {
	BatchSizes         []int
	IncrementalPerRec  []time.Duration // mean per-record insert latency per batch
	BatchRelinkPerRec  []time.Duration // mean per-record cost of full re-linkage at that size
	IncComparisons     []int
	CorpusAfterBatch   []int
	FinalIncrementalF1 float64
	// Cumulative wall-clock over the whole stream: processing every batch
	// incrementally vs re-running full linkage at every checkpoint.
	CumulativeIncremental time.Duration
	CumulativeBatch       time.Duration
}

// E7 — incremental vs batch linkage under a record stream: per-record
// incremental cost stays flat, and processing the whole stream
// incrementally beats re-running full linkage at every checkpoint,
// whose cumulative cost grows quadratically with the stream.
func E7(seed int64) (*Table, *E7Result, error) {
	// Enough checkpoints that the batch path's redone work clearly
	// dominates, even with the parallel interned blocking engine
	// driving batch candidate generation.
	web := dirtyWeb(seed, 700, 24, 1)
	d := web.Dataset
	all := d.Records()

	// 0.72 sits above the Jaccard of same-brand-same-series titles of
	// *different* entities (3 of 5 tokens ≈ 0.6) and below true
	// duplicates with one token perturbed (4 of 5 = 0.8).
	matcher := linkage.ThresholdMatcher{
		Comparator: similarity.UniformComparator(similarity.Jaccard, "title"),
		Threshold:  0.72,
	}
	inc := linkage.NewIncremental(linkage.TitleTokenKey, matcher)
	inc.MaxBlock = 128
	res := &E7Result{}
	tab := &Table{
		ID: "E7", Title: "incremental vs batch linkage per record",
		Columns: []string{"corpus", "inc/rec", "batch/rec", "inc comparisons"},
	}
	const batch = 400
	prevComparisons := 0
	for start := 0; start < len(all); start += batch {
		end := start + batch
		if end > len(all) {
			end = len(all)
		}
		t0 := time.Now()
		for _, r := range all[start:end] {
			src := d.Source(r.SourceID)
			if _, err := inc.Insert(src, r.Clone()); err != nil {
				return nil, nil, err
			}
		}
		incElapsed := time.Since(t0)
		incPer := incElapsed / time.Duration(end-start)
		res.CumulativeIncremental += incElapsed

		// Full batch re-linkage over everything seen so far.
		t0 = time.Now()
		seen := all[:end]
		cands, err := pairsOf(seen, blocking.Standard{Key: blocking.TokenKey("title"), MaxBlock: 200})
		if err != nil {
			return nil, nil, err
		}
		edges, err := linkage.MatchStreamCtx(context.Background(), d, linkage.PairSlice(cands), matcher, 4, nil)
		if err != nil {
			return nil, nil, err
		}
		var ids []string
		for _, r := range seen {
			ids = append(ids, r.ID)
		}
		linkage.ConnectedComponents{}.Cluster(ids, edges)
		batchElapsed := time.Since(t0)
		batchPer := batchElapsed / time.Duration(end)
		res.CumulativeBatch += batchElapsed

		res.BatchSizes = append(res.BatchSizes, end)
		res.IncrementalPerRec = append(res.IncrementalPerRec, incPer)
		res.BatchRelinkPerRec = append(res.BatchRelinkPerRec, batchPer)
		res.IncComparisons = append(res.IncComparisons, inc.Comparisons()-prevComparisons)
		res.CorpusAfterBatch = append(res.CorpusAfterBatch, end)
		prevComparisons = inc.Comparisons()
		tab.Rows = append(tab.Rows, []string{
			d1(end), incPer.String(), batchPer.String(), d1(res.IncComparisons[len(res.IncComparisons)-1]),
		})
	}
	res.FinalIncrementalF1 = eval.Clusters(inc.Clusters(), d.GroundTruthClusters()).F1
	tab.Notes = fmt.Sprintf(
		"final incremental F1 = %.3f; whole stream: incremental %s vs batch-relink-at-every-checkpoint %s",
		res.FinalIncrementalF1, res.CumulativeIncremental, res.CumulativeBatch)
	return tab, res, nil
}

// E8Result is the structured output of E8.
type E8Result struct {
	Sources   []int
	LinkageF1 []float64 // alignment F1 with linkage evidence
	NameF1    []float64 // alignment F1 with name+instance evidence only
}

// E8 — mediated-schema quality vs number of sources, with and without
// linkage evidence.
func E8(seed int64) (*Table, *E8Result, error) {
	res := &E8Result{}
	tab := &Table{
		ID: "E8", Title: "schema alignment F1 vs number of sources",
		Columns: []string{"sources", "with-linkage", "name+instance"},
	}
	for _, n := range []int{4, 8, 12, 16} {
		w := datagen.NewWorld(datagen.WorldConfig{
			Seed: seed, NumEntities: 40, Categories: []string{"camera"},
		})
		web := datagen.BuildWeb(w, datagen.SourceConfig{
			Seed: seed + int64(n), NumSources: n, DirtLevel: 1,
			IdentifierRate: 0.95, Heterogeneity: 0.6,
			HeadFraction: 0.4, TailCoverage: 0.3,
		})
		d := web.Dataset
		// Identifier-based linkage for the evidence.
		records := d.Records()
		cands, err := pairsOf(records, blocking.Standard{Key: blocking.AttrExactKey("pid")})
		if err != nil {
			return nil, nil, err
		}
		edges, err := linkage.MatchStreamCtx(context.Background(), d, linkage.PairSlice(cands), linkage.RuleMatcher{Exact: []string{"pid"}}, 4, nil)
		if err != nil {
			return nil, nil, err
		}
		var ids []string
		for _, r := range records {
			ids = append(ids, r.ID)
		}
		clusters := linkage.ConnectedComponents{}.Cluster(ids, edges)

		profiles := schema.Profiler{}.Build(d)
		cols, err := schema.NewColumns(context.Background(), d, profiles)
		if err != nil {
			return nil, nil, err
		}
		le, err := schema.NewLinkageEvidence(context.Background(), cols, clusters, 0)
		if err != nil {
			return nil, nil, err
		}
		withLE, err := schema.Aligner{Evidence: le.Blend, Threshold: 0.5}.Align(profiles)
		if err != nil {
			return nil, nil, err
		}
		nameOnly, err := schema.Aligner{Threshold: 0.5}.Align(profiles)
		if err != nil {
			return nil, nil, err
		}
		lf1 := AlignmentF1(web, withLE)
		nf1 := AlignmentF1(web, nameOnly)
		res.Sources = append(res.Sources, n)
		res.LinkageF1 = append(res.LinkageF1, lf1)
		res.NameF1 = append(res.NameF1, nf1)
		tab.Rows = append(tab.Rows, []string{d1(n), f4(lf1), f4(nf1)})
	}
	tab.Notes = "linkage evidence should dominate as sources (and co-linked support) grow"
	return tab, res, nil
}

// E10Result is the structured output of E10.
type E10Result struct {
	Curve     []sourcesel.GainPoint
	Greedy    *sourcesel.Selection
	AllQ      float64
	BestEarly float64
}

// E10 — "less is more": fusion accuracy vs number of sources integrated
// best-first, and the greedy selection's stopping point.
func E10(seed int64) (*Table, *E10Result, error) {
	cw := datagen.BuildClaims(datagen.ClaimConfig{
		Seed: seed, NumItems: 200, NumValues: 3,
		NumSources: 14, MinAccuracy: 0.25, MaxAccuracy: 0.95,
	})
	q := sourcesel.FusionAccuracyQuality(fusion.MajorityVote{})
	order := sourcesel.ByEstimatedAccuracy(cw.TrueAccuracy)
	curve, err := sourcesel.GainCurve(cw.Claims, order, q, nil)
	if err != nil {
		return nil, nil, err
	}
	greedy, err := sourcesel.Greedy{Quality: q}.Select(cw.Claims)
	if err != nil {
		return nil, nil, err
	}
	res := &E10Result{Curve: curve, Greedy: greedy}
	tab := &Table{
		ID: "E10", Title: "less is more: accuracy vs sources integrated (best-first)",
		Columns: []string{"k", "source", "accuracy", "marginal gain"},
	}
	for _, p := range curve {
		tab.Rows = append(tab.Rows, []string{d1(p.K), p.Source, f4(p.Quality), f4(p.Gain)})
		if p.Quality > res.BestEarly {
			res.BestEarly = p.Quality
		}
	}
	res.AllQ = curve[len(curve)-1].Quality
	tab.Notes = fmt.Sprintf(
		"greedy stops at %d of %d sources with accuracy %.4f (all-sources accuracy %.4f)",
		len(greedy.Sources), len(order), greedy.Quality, res.AllQ)
	return tab, res, nil
}
