package linkage

import (
	"testing"

	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/similarity"
)

// fsWorkload builds a generated dirty web plus all-pairs candidates
// restricted to shared-title-token pairs.
func fsWorkload(dirt int) (*data.Dataset, []data.Pair, []data.Pair) {
	w := datagen.NewWorld(datagen.WorldConfig{
		Seed: 31, NumEntities: 60, Categories: []string{"camera"},
	})
	web := datagen.BuildWeb(w, datagen.SourceConfig{
		Seed: 32, NumSources: 12, DirtLevel: dirt, IdentifierRate: 0.0,
		Heterogeneity: 0.01, HeadFraction: 0.5, TailCoverage: 0.3,
		MinAccuracy: 0.8, MaxAccuracy: 0.95,
	})
	d := web.Dataset
	recs := d.Records()
	var cands []data.Pair
	for i := 0; i < len(recs); i++ {
		for j := i + 1; j < len(recs); j++ {
			if similarity.Jaccard(recs[i].Get("title").Str, recs[j].Get("title").Str) > 0.2 {
				cands = append(cands, data.NewPair(recs[i].ID, recs[j].ID))
			}
		}
	}
	var truth []data.Pair
	for _, p := range d.GroundTruthClusters().Pairs() {
		truth = append(truth, p)
	}
	return d, cands, truth
}

func fsComparator() *similarity.RecordComparator {
	return similarity.NewRecordComparator(
		similarity.FieldWeight{Attr: "title", Weight: 2, Metric: similarity.Jaccard},
		similarity.FieldWeight{Attr: "camera_brand", Weight: 1},
		similarity.FieldWeight{Attr: "camera_color", Weight: 1},
		similarity.FieldWeight{Attr: "camera_weight_g", Weight: 1},
		similarity.FieldWeight{Attr: "camera_price_usd", Weight: 1},
	)
}

func TestFellegiSunterTrainsAndSeparates(t *testing.T) {
	d, cands, _ := fsWorkload(1)
	fs := NewFellegiSunter(fsComparator())
	if err := fs.Train(d, cands, 15); err != nil {
		t.Fatal(err)
	}
	m, u, prior := fs.Params()
	if prior <= 0 || prior >= 1 {
		t.Fatalf("prior = %f", prior)
	}
	// The match class must agree more than the unmatch class overall.
	var mSum, uSum float64
	for i := range m {
		mSum += m[i]
		uSum += u[i]
	}
	if mSum <= uSum {
		t.Errorf("m=%v must dominate u=%v", m, u)
	}
	// Posterior separates a true duplicate pair from a non-duplicate.
	var dup, nondup *data.Record
	recs := d.Records()
	for i := 0; i < len(recs) && (dup == nil || nondup == nil); i++ {
		for j := i + 1; j < len(recs); j++ {
			if recs[i].EntityID == recs[j].EntityID && dup == nil {
				dup, nondup = recs[i], recs[j]
			}
		}
	}
	if dup == nil {
		t.Skip("no duplicate pair in sample")
	}
	other := recs[0]
	for _, r := range recs {
		if r.EntityID != dup.EntityID {
			other = r
			break
		}
	}
	pDup := fs.Posterior(dup, nondup)
	pNon := fs.Posterior(dup, other)
	if pDup <= pNon {
		t.Errorf("posterior(dup)=%f must exceed posterior(nondup)=%f", pDup, pNon)
	}
}

func TestFellegiSunterQualityDegradesGracefully(t *testing.T) {
	f1 := fsF1(t, 1)
	f3 := fsF1(t, 3)
	if f1 < 0.5 {
		t.Errorf("light-dirt F1 = %f, want >= 0.5", f1)
	}
	if f3 > f1+0.05 {
		t.Errorf("heavy dirt (%f) should not beat light dirt (%f)", f3, f1)
	}
}

func fsF1(t *testing.T, dirt int) float64 {
	t.Helper()
	d, cands, truth := fsWorkload(dirt)
	fs := NewFellegiSunter(fsComparator())
	fs.Threshold = 0.8
	fs.AgreeAt = 0.7
	if err := fs.Train(d, cands, 15); err != nil {
		t.Fatal(err)
	}
	matched := matchAll(t, d, cands, fs, 4)
	var pred []data.Pair
	for _, sp := range matched {
		pred = append(pred, sp.Pair)
	}
	ps := map[data.Pair]bool{}
	for _, p := range pred {
		ps[p] = true
	}
	ts := map[data.Pair]bool{}
	for _, p := range truth {
		ts[p] = true
	}
	tp := 0
	for p := range ps {
		if ts[p] {
			tp++
		}
	}
	if len(ps) == 0 || len(ts) == 0 {
		return 0
	}
	p := float64(tp) / float64(len(ps))
	r := float64(tp) / float64(len(ts))
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

func TestFellegiSunterErrors(t *testing.T) {
	d := data.NewDataset()
	fs := NewFellegiSunter(similarity.NewRecordComparator())
	if err := fs.Train(d, []data.Pair{data.NewPair("a", "b")}, 5); err == nil {
		t.Error("no fields must error")
	}
	fs2 := NewFellegiSunter(similarity.UniformComparator(nil, "title"))
	if err := fs2.Train(d, nil, 5); err == nil {
		t.Error("no candidates must error")
	}
	if err := fs2.Train(d, []data.Pair{data.NewPair("a", "b")}, 5); err == nil {
		t.Error("unknown records must error")
	}
}

func TestFellegiSunterUntrained(t *testing.T) {
	fs := NewFellegiSunter(similarity.UniformComparator(nil, "title"))
	a := data.NewRecord("a", "s").Set("title", data.String("x"))
	if p := fs.Posterior(a, a); p != 0 {
		t.Errorf("untrained posterior = %f, want 0", p)
	}
	if _, ok := fs.Match(a, a); ok {
		t.Error("untrained model must not match")
	}
}

func TestLogLikelihoodRatioDirection(t *testing.T) {
	d, cands, _ := fsWorkload(1)
	fs := NewFellegiSunter(fsComparator())
	if err := fs.Train(d, cands, 15); err != nil {
		t.Fatal(err)
	}
	recs := d.Records()
	var dupA, dupB, other *data.Record
	for i := 0; i < len(recs) && dupA == nil; i++ {
		for j := i + 1; j < len(recs); j++ {
			if recs[i].EntityID == recs[j].EntityID {
				dupA, dupB = recs[i], recs[j]
				break
			}
		}
	}
	for _, r := range recs {
		if dupA != nil && r.EntityID != dupA.EntityID {
			other = r
			break
		}
	}
	if dupA == nil || other == nil {
		t.Skip("sample lacks needed pairs")
	}
	if fs.LogLikelihoodRatio(dupA, dupB) <= fs.LogLikelihoodRatio(dupA, other) {
		t.Error("LLR must rank duplicate above non-duplicate")
	}
}
