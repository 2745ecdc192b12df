package blocking

import (
	"fmt"
	"testing"

	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/eval"
)

func TestMinHashLSHFindsSimilarPairs(t *testing.T) {
	recs := []*data.Record{
		rec("m1", "nova camera pro 300 deluxe edition"),
		rec("m2", "nova camera pro 300 deluxe"),
		rec("m3", "completely different kitchen blender appliance"),
		rec("m4", "unrelated garden hose fitting set"),
	}
	lsh := MinHashLSH{Bands: 16, Rows: 2, Seed: 1} // low threshold
	got := pairSet(candidatesOf(t, lsh, recs, Opts{}))
	if !got[data.NewPair("m1", "m2")] {
		t.Error("near-duplicate titles must collide in some band")
	}
	if got[data.NewPair("m3", "m4")] {
		t.Error("dissimilar titles should not collide (w.h.p.)")
	}
}

func TestMinHashDeterministic(t *testing.T) {
	recs := sampleRecords()
	lsh := MinHashLSH{Seed: 7}
	a := pairSet(candidatesOf(t, lsh, recs, Opts{}))
	b := pairSet(candidatesOf(t, lsh, recs, Opts{}))
	if len(a) != len(b) {
		t.Fatalf("candidate counts differ: %d vs %d", len(a), len(b))
	}
	for p := range a {
		if !b[p] {
			t.Fatalf("pair %v missing on rerun", p)
		}
	}
}

func TestMinHashEstimateJaccard(t *testing.T) {
	lsh := MinHashLSH{Bands: 32, Rows: 4, Seed: 3}
	same := lsh.EstimateJaccard(rec("a", "one two three four"), rec("b", "one two three four"))
	if same < 0.99 {
		t.Errorf("identical sets estimate = %f, want ~1", same)
	}
	disjoint := lsh.EstimateJaccard(rec("c", "alpha beta gamma"), rec("d", "delta epsilon zeta"))
	if disjoint > 0.1 {
		t.Errorf("disjoint sets estimate = %f, want ~0", disjoint)
	}
	half := lsh.EstimateJaccard(rec("e", "one two three four"), rec("f", "one two five six"))
	if half < 0.1 || half > 0.65 {
		t.Errorf("overlapping sets estimate = %f, want mid-range", half)
	}
	if lsh.EstimateJaccard(rec("g", ""), rec("h", "x")) != 0 {
		t.Error("empty record estimates 0")
	}
}

func TestMinHashOnGeneratedCorpus(t *testing.T) {
	w := datagen.NewWorld(datagen.WorldConfig{Seed: 91, NumEntities: 60, Categories: []string{"camera"}})
	web := datagen.BuildWeb(w, datagen.SourceConfig{
		Seed: 92, NumSources: 10, DirtLevel: 1, HeadFraction: 0.4, TailCoverage: 0.3,
	})
	records := web.Dataset.Records()
	truth := web.Dataset.GroundTruthClusters().Pairs()
	lsh := MinHashLSH{Bands: 12, Rows: 3, Seed: 5}
	q := eval.Blocking(candidatesOf(t, lsh, records, Opts{}), truth, len(records))
	if q.PairCompleteness < 0.8 {
		t.Errorf("LSH pair completeness = %f, want >= 0.8", q.PairCompleteness)
	}
	if q.ReductionRatio < 0.3 {
		t.Errorf("LSH reduction ratio = %f, want >= 0.3", q.ReductionRatio)
	}
}

func TestPhoneticKeyBlocksSoundalikes(t *testing.T) {
	recs := []*data.Record{
		rec("p1", "smith turbo blender"),
		rec("p2", "smyth turbo blender"),
		rec("p3", "johnson mixer"),
	}
	for _, scheme := range []string{"soundex", "nysiis"} {
		got := pairSet(candidatesOf(t, Standard{Key: PhoneticKey("title", scheme)}, recs, Opts{}))
		if !got[data.NewPair("p1", "p2")] {
			t.Errorf("%s: smith/smyth must share a block", scheme)
		}
	}
}

func BenchmarkMinHashLSH(b *testing.B) {
	recs := make([]*data.Record, 500)
	for i := range recs {
		recs[i] = rec(fmt.Sprintf("b%03d", i), fmt.Sprintf("brand%d model %d series alpha", i%20, i))
	}
	lsh := MinHashLSH{Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		candidatesOf(b, lsh, recs, Opts{})
	}
}
