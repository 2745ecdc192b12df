package linkage

import (
	"context"
	"slices"
	"strconv"
	"testing"

	"repro/internal/blocking"
	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/obs"
	"repro/internal/similarity"
)

func budgetSample() (*data.Dataset, PairSlice, Matcher) {
	d := linkageSample()
	pairs := PairSlice{
		data.NewPair("a", "b"), // match: near-duplicate titles
		data.NewPair("a", "c"),
		data.NewPair("a", "d"), // match at 0.6
		data.NewPair("b", "c"),
		data.NewPair("b", "d"),
		data.NewPair("c", "d"),
	}
	m := ThresholdMatcher{
		Comparator: similarity.UniformComparator(similarity.Jaccard, "title"),
		Threshold:  0.6,
	}
	return d, pairs, m
}

func TestMatchBudgetedRecordsObsGauges(t *testing.T) {
	d, pairs, m := budgetSample()
	reg := obs.NewRegistry()
	_, consumed, err := MatchBudgetedCtx(context.Background(), d, pairs, m, 3, 1, reg)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Gauge("matching.budget").Value(); got != 3 {
		t.Errorf("matching.budget = %v, want 3", got)
	}
	if got := reg.Gauge("matching.budget_consumed").Value(); got != float64(consumed) {
		t.Errorf("matching.budget_consumed = %v, want %d", got, consumed)
	}
}

// TestPairSliceRecordIDs: IDs are the ascending distinct IDs the pairs
// reference, and EmitCodes ranks each pair over them in its own
// orientation, repeats kept.
func TestPairSliceRecordIDs(t *testing.T) {
	s := PairSlice{
		{A: "z", B: "a"}, data.NewPair("a", "m"), data.NewPair("z", "m"), {A: "z", B: "a"},
	}
	got := s.IDs()
	want := []string{"a", "m", "z"}
	if !slices.Equal(got, want) {
		t.Fatalf("IDs = %v, want %v", got, want)
	}
	var codes []uint64
	if err := s.EmitCodes(func(code uint64) bool {
		codes = append(codes, code)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if wantCodes := []uint64{2<<32 | 0, 0<<32 | 1, 1<<32 | 2, 2<<32 | 0}; !slices.Equal(codes, wantCodes) {
		t.Fatalf("EmitCodes = %x, want %x", codes, wantCodes)
	}
}

// BenchmarkMatchSpilled times the link_scale shape at a tenth of its
// size: a spilled candidate set of the scale corpus's title blocks,
// matched by a fresh title-Jaccard rule, so every iteration builds the
// feature index, scores, sorts and decodes. It reports ns per candidate
// pair besides allocs/op.
func BenchmarkMatchSpilled(b *testing.B) {
	const n, group = 35_000, 8
	recs := datagen.ScaleRecords(datagen.ScaleConfig{Seed: 42, NumRecords: n, GroupSize: group})
	d := data.NewDataset()
	for s := 0; s < 16; s++ {
		if err := d.AddSource(&data.Source{ID: "src" + strconv.Itoa(s)}); err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range recs {
		if err := d.AddRecord(r); err != nil {
			b.Fatal(err)
		}
	}
	raw := int64(n) * (group - 1) / 2 // pairs of the full groups
	eng := blocking.NewEngineOpts(recs, blocking.Opts{Workers: 2, PairMemBudget: raw * 16 / 4, SpillDir: b.TempDir()})
	cs := eng.Blocks(blocking.TokenKey("title")).Purge(group).CandidateSet()
	defer cs.Close()
	if err := eng.Err(); err != nil || !cs.Spilled() {
		b.Fatalf("set not spilled (err %v)", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := RuleMatcher{
			Comparator: similarity.NewRecordComparator(similarity.FieldWeight{Attr: "title", Weight: 1, Metric: similarity.Jaccard}),
			Threshold:  0.6,
		}
		if _, err := MatchStreamCtx(context.Background(), d, cs, m, 2, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cs.Len()), "ns/pair")
}
