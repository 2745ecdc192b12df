package linkage

import (
	"context"
	"slices"
	"testing"

	"repro/internal/data"
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

func TestPairSliceRecordIDs(t *testing.T) {
	s := PairSlice{
		data.NewPair("z", "a"), data.NewPair("a", "m"), data.NewPair("z", "m"),
	}
	got := s.RecordIDs()
	want := []string{"a", "m", "z"}
	if !slices.Equal(got, want) {
		t.Fatalf("RecordIDs = %v, want %v", got, want)
	}
}
