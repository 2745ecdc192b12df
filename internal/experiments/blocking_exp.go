package experiments

import (
	"context"
	"errors"
	"time"

	"repro/internal/blocking"
	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/linkage"
	"repro/internal/similarity"
)

// dirtyWeb builds the blocking/linkage workload: a single-category web
// with duplicate-rich sources and configurable dirt.
func dirtyWeb(seed int64, entities, sources, dirt int) *datagen.Web {
	w := datagen.NewWorld(datagen.WorldConfig{
		Seed: seed, NumEntities: entities, Categories: []string{"camera"},
	})
	return datagen.BuildWeb(w, datagen.SourceConfig{
		Seed: seed + 1, NumSources: sources, DirtLevel: dirt,
		IdentifierRate: 0.9, Heterogeneity: 0.3,
		HeadFraction: 0.4, TailCoverage: 0.3,
	})
}

// pairsOf runs b on a fresh engine over records and returns its
// candidate pairs, or the engine's error.
func pairsOf(records []*data.Record, b blocking.Blocker) ([]data.Pair, error) {
	eng := blocking.NewEngineOpts(records, blocking.Opts{})
	pairs := b.Candidates(eng).Pairs()
	return pairs, eng.Err()
}

// E3Result is the structured output of E3.
type E3Result struct {
	// Quality[method] holds the blocking quality metrics.
	Quality map[string]eval.BlockingQuality
	Methods []string
	// Candidate-generation throughput (candidates/sec) per method on a
	// scaled-up corpus, with the engine pinned to one worker vs all
	// cores. The candidate sets are byte-identical; only wall-clock
	// differs.
	SeqThroughput map[string]float64
	ParThroughput map[string]float64
}

// E3 — blocking method trade-off: pair completeness vs reduction ratio
// for the classic blocking family, plus sequential vs parallel
// candidate-generation throughput of the interned engine.
func E3(seed int64) (*Table, *E3Result, error) {
	web := dirtyWeb(seed, 80, 12, 2)
	records := web.Dataset.Records()
	truth := web.Dataset.GroundTruthClusters().Pairs()
	n := len(records)

	title := []blocking.KeyFunc{blocking.AttrExactKey("title")}
	methods := []struct {
		name string
		b    blocking.Blocker
	}{
		{"exact(title)", blocking.Standard{Key: blocking.AttrExactKey("title"), MaxBlock: 200}},
		{"prefix3(title)", blocking.Standard{Key: blocking.AttrPrefixKey("title", 3), MaxBlock: 200}},
		{"prefix5(title)", blocking.Standard{Key: blocking.AttrPrefixKey("title", 5), MaxBlock: 200}},
		{"token(title)", blocking.Standard{Key: blocking.TokenKey("title"), MaxBlock: 200}},
		{"qgram3(title)", blocking.Standard{Key: blocking.QGramKey("title", 3), MaxBlock: 200}},
		{"sn(w=3)", blocking.SortedNeighborhood{Keys: title, Window: 3}},
		{"sn(w=5)", blocking.SortedNeighborhood{Keys: title, Window: 5}},
		{"sn(w=9)", blocking.SortedNeighborhood{Keys: title, Window: 9}},
	}
	res := &E3Result{
		Quality:       map[string]eval.BlockingQuality{},
		SeqThroughput: map[string]float64{},
		ParThroughput: map[string]float64{},
	}
	tab := &Table{
		ID: "E3", Title: "blocking: reduction ratio vs pair completeness",
		Columns: []string{"method", "candidates", "RR", "PC", "PQ", "seq cands/s", "par cands/s"},
	}
	// Quality is measured on the small corpus above; throughput on a
	// scaled-up one, where sharded block building and parallel dedup
	// have something to chew on.
	big := dirtyWeb(seed+5, 500, 20, 1).Dataset.Records()
	const reps = 3
	// throughput times the whole pass, ID interning included, on a
	// fresh engine per repetition.
	throughput := func(b blocking.Blocker, o blocking.Opts) (float64, error) {
		start := time.Now()
		c := 0
		for r := 0; r < reps; r++ {
			eng := blocking.NewEngineOpts(big, o)
			c = b.Candidates(eng).Len()
			if err := eng.Err(); err != nil {
				return 0, err
			}
		}
		el := time.Since(start) / reps
		if el <= 0 {
			return 0, nil
		}
		return float64(c) / el.Seconds(), nil
	}
	for _, m := range methods {
		cands, err := pairsOf(records, m.b)
		seqT, seqErr := throughput(m.b, blocking.Opts{Workers: 1})
		parT, parErr := throughput(m.b, blocking.Opts{}) // 0 workers = NumCPU
		if err := errors.Join(err, seqErr, parErr); err != nil {
			return nil, nil, err
		}
		q := eval.Blocking(cands, truth, n)
		res.Quality[m.name] = q
		res.Methods = append(res.Methods, m.name)
		res.SeqThroughput[m.name] = seqT
		res.ParThroughput[m.name] = parT
		tab.Rows = append(tab.Rows, []string{
			m.name, d1(q.Candidates), f4(q.ReductionRatio), f4(q.PairCompleteness), f4(q.PairQuality),
			f1(seqT), f1(parT),
		})
	}
	tab.Notes = "token/q-gram blocking trade RR for PC; wider SN windows raise PC and lower RR; throughput columns (measured on a 500-entity corpus) compare the interned engine at 1 worker vs all cores on identical output"
	return tab, res, nil
}

// E4Result is the structured output of E4.
type E4Result struct {
	BaselineComparisons int
	BaselinePC          float64
	// Rows[scheme+prune] = (comparisons, PC).
	Meta map[string]eval.BlockingQuality
}

// E4 — meta-blocking vs raw token blocking: comparisons cut at small
// pair-completeness loss (shape of Papadakis et al.).
func E4(seed int64) (*Table, *E4Result, error) {
	web := dirtyWeb(seed, 80, 12, 2)
	records := web.Dataset.Records()
	truth := web.Dataset.GroundTruthClusters().Pairs()
	n := len(records)

	eng := blocking.NewEngineOpts(records, blocking.Opts{})
	blocks := eng.Blocks(blocking.TokenKey("title"))
	base := eval.Blocking(blocks.Pairs(), truth, n)
	res := &E4Result{
		BaselineComparisons: blocks.Comparisons(),
		BaselinePC:          base.PairCompleteness,
		Meta:                map[string]eval.BlockingQuality{},
	}
	tab := &Table{
		ID: "E4", Title: "meta-blocking vs token blocking",
		Columns: []string{"config", "candidates", "PC", "PQ"},
	}
	tab.Rows = append(tab.Rows, []string{
		"token-blocking", d1(base.Candidates), f4(base.PairCompleteness), f4(base.PairQuality),
	})
	weights := map[string]blocking.WeightScheme{"cbs": blocking.CBS, "ecbs": blocking.ECBS, "js": blocking.JS}
	prunes := map[string]blocking.PruneScheme{"wep": blocking.WEP, "cep": blocking.CEP, "wnp": blocking.WNP}
	for _, wn := range []string{"cbs", "ecbs", "js"} {
		for _, pn := range []string{"wep", "cep", "wnp"} {
			mb := blocking.MetaBlocker{Weight: weights[wn], Prune: prunes[pn]}
			q := eval.Blocking(mb.Pruned(blocks).Pairs(), truth, n)
			key := wn + "+" + pn
			res.Meta[key] = q
			tab.Rows = append(tab.Rows, []string{key, d1(q.Candidates), f4(q.PairCompleteness), f4(q.PairQuality)})
		}
	}
	if err := eng.Err(); err != nil {
		return nil, nil, err
	}
	tab.Notes = "meta-blocking should cut candidates sharply while keeping most pair completeness"
	return tab, res, nil
}

// E5Result is the structured output of E5.
type E5Result struct {
	// F1[dirt][matcher] over dirt levels 1..3.
	F1 map[int]map[string]float64
}

// E5 — matcher quality across dirtiness: identifier rule vs similarity
// threshold vs unsupervised Fellegi-Sunter.
func E5(seed int64) (*Table, *E5Result, error) {
	res := &E5Result{F1: map[int]map[string]float64{}}
	tab := &Table{
		ID: "E5", Title: "matcher F1 across dirt levels",
		Columns: []string{"dirt", "rule(id)", "threshold", "fellegi-sunter"},
	}
	for dirt := 1; dirt <= 3; dirt++ {
		web := dirtyWeb(seed+int64(dirt)*37, 60, 10, dirt)
		d := web.Dataset
		records := d.Records()
		truth := d.GroundTruthClusters().Pairs()
		eng := blocking.NewEngineOpts(records, blocking.Opts{})
		cands := eng.Blocks(blocking.TokenKey("title")).Purge(200).Pairs()
		cands = append(cands, eng.Blocks(blocking.AttrExactKey("pid")).Pairs()...)
		if err := eng.Err(); err != nil {
			return nil, nil, err
		}

		cmp := similarity.NewRecordComparator(
			similarity.FieldWeight{Attr: "title", Weight: 2, Metric: similarity.Jaccard},
			similarity.FieldWeight{Attr: "camera_brand", Weight: 1},
			similarity.FieldWeight{Attr: "camera_color", Weight: 1},
			similarity.FieldWeight{Attr: "camera_weight_g", Weight: 1},
			similarity.FieldWeight{Attr: "camera_price_usd", Weight: 1},
		)
		fs := linkage.NewFellegiSunter(cmp)
		fs.AgreeAt = 0.7
		fs.Threshold = 0.8
		if err := fs.Train(d, cands, 15); err != nil {
			return nil, nil, err
		}
		matchers := []struct {
			name string
			m    linkage.Matcher
		}{
			{"rule(id)", linkage.RuleMatcher{Exact: []string{"pid"}}},
			{"threshold", linkage.ThresholdMatcher{Comparator: cmp, Threshold: 0.65}},
			{"fellegi-sunter", fs},
		}
		res.F1[dirt] = map[string]float64{}
		row := []string{d1(dirt)}
		for _, m := range matchers {
			matched, err := linkage.MatchStreamCtx(context.Background(), d, linkage.PairSlice(cands), m.m, 4, nil)
			if err != nil {
				return nil, nil, err
			}
			var pred []data.Pair
			for _, sp := range matched {
				pred = append(pred, sp.Pair)
			}
			prf := eval.Pairs(pred, truth)
			res.F1[dirt][m.name] = prf.F1
			row = append(row, f3(prf.F1))
		}
		tab.Rows = append(tab.Rows, row)
	}
	tab.Notes = "all matchers degrade with dirt; the identifier rule is most robust when ids are published"
	return tab, res, nil
}

// E9Result is the structured output of E9. Throughput is the cached
// (feature-index) path; UncachedThroughput re-tokenises per pair.
type E9Result struct {
	Workers            []int
	Throughput         []float64 // matched pairs per second, cached
	Elapsed            []time.Duration
	UncachedThroughput []float64
	Speedup            []float64 // cached / uncached
}

// E9 — scale-out: pairwise matching throughput vs worker count, with
// and without the per-record feature cache.
func E9(seed int64) (*Table, *E9Result, error) {
	web := dirtyWeb(seed, 300, 20, 1)
	d := web.Dataset
	records := d.Records()
	cands, err := pairsOf(records, blocking.Standard{Key: blocking.TokenKey("title"), MaxBlock: 400})
	if err != nil {
		return nil, nil, err
	}
	matcher := func() linkage.ThresholdMatcher {
		return linkage.ThresholdMatcher{
			Comparator: similarity.UniformComparator(similarity.Jaccard, "title"),
			Threshold:  0.6,
		}
	}
	const reps = 5
	run := func(m linkage.Matcher, w int) (time.Duration, error) {
		start := time.Now()
		for r := 0; r < reps; r++ {
			if _, err := linkage.MatchStreamCtx(context.Background(), d, linkage.PairSlice(cands), m, w, nil); err != nil {
				return 0, err
			}
		}
		return time.Since(start) / reps, nil
	}
	res := &E9Result{}
	tab := &Table{
		ID: "E9", Title: "matching throughput vs workers (cached vs uncached)",
		Columns: []string{"workers", "candidates", "elapsed", "pairs/sec", "uncached pairs/sec", "speedup"},
	}
	for _, w := range []int{1, 2, 4, 8} {
		// The comparator must be fresh per variant: NoIndex only skips
		// index preparation, an already-attached index would still be used.
		el, err := run(matcher(), w)
		if err != nil {
			return nil, nil, err
		}
		elU, err := run(linkage.NoIndex(matcher()), w)
		if err != nil {
			return nil, nil, err
		}
		tput := float64(len(cands)) / el.Seconds()
		tputU := float64(len(cands)) / elU.Seconds()
		res.Workers = append(res.Workers, w)
		res.Elapsed = append(res.Elapsed, el)
		res.Throughput = append(res.Throughput, tput)
		res.UncachedThroughput = append(res.UncachedThroughput, tputU)
		res.Speedup = append(res.Speedup, tput/tputU)
		tab.Rows = append(tab.Rows, []string{
			d1(w), d1(len(cands)), el.String(), f3(tput), f3(tputU), f3(tput/tputU) + "x",
		})
	}
	tab.Notes = "feature cache tokenises each record once per batch instead of once per pair; throughput should also rise with workers until cores saturate"
	return tab, res, nil
}
