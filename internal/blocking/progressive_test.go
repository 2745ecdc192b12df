package blocking

import (
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/datagen"
)

func TestProgressiveOrdersSmallBlocksFirst(t *testing.T) {
	// "rare" is shared by exactly the true pair; "common" by everyone.
	recs := []*data.Record{
		rec("p1", "rare common"),
		rec("p2", "rare common"),
		rec("p3", "common other1"),
		rec("p4", "common other2"),
	}
	ordered := rankedOf(t, Standard{Key: TokenKey("title")}, recs, Opts{})
	if len(ordered) == 0 {
		t.Fatal("no pairs")
	}
	if ordered[0] != data.NewPair("p1", "p2") {
		t.Errorf("first pair = %v, want the rare-key pair", ordered[0])
	}
	// Deduplicated.
	seen := map[data.Pair]bool{}
	for _, p := range ordered {
		if seen[p] {
			t.Fatalf("duplicate pair %v", p)
		}
		seen[p] = true
	}
}

func TestProgressiveMaxBlock(t *testing.T) {
	recs := []*data.Record{
		rec("q1", "shared"), rec("q2", "shared"), rec("q3", "shared"), rec("q4", "shared"),
	}
	if got := rankedOf(t, Standard{Key: TokenKey("title"), MaxBlock: 3}, recs, Opts{}); len(got) != 0 {
		t.Errorf("oversized block must be skipped, got %v", got)
	}
}

func TestRecallCurveMonotoneAndCorrect(t *testing.T) {
	truth := []data.Pair{data.NewPair("a", "b"), data.NewPair("c", "d")}
	ordered := []data.Pair{
		data.NewPair("a", "b"), // hit at budget 1
		data.NewPair("a", "c"),
		data.NewPair("c", "d"), // hit at budget 3
	}
	got := RecallCurve(ordered, truth, []int{1, 2, 3, 10})
	want := []float64{0.5, 0.5, 1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("budget curve = %v, want %v", got, want)
			break
		}
	}
	if z := RecallCurve(ordered, nil, []int{1}); z[0] != 0 {
		t.Error("no truth pairs must give zero curve")
	}
}

func TestProgressiveBeatsRandomOrderOnBudget(t *testing.T) {
	w := datagen.NewWorld(datagen.WorldConfig{Seed: 101, NumEntities: 80, Categories: []string{"camera"}})
	web := datagen.BuildWeb(w, datagen.SourceConfig{
		Seed: 102, NumSources: 12, DirtLevel: 1, HeadFraction: 0.4, TailCoverage: 0.3,
	})
	records := web.Dataset.Records()
	truth := web.Dataset.GroundTruthClusters().Pairs()

	ordered := rankedOf(t, Standard{Key: TokenKey("title"), MaxBlock: 200}, records, Opts{})
	shuffled := append([]data.Pair(nil), ordered...)
	rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	budget := len(ordered) / 10 // 10% comparison budget
	progRecall := RecallCurve(ordered, truth, []int{budget})[0]
	randRecall := RecallCurve(shuffled, truth, []int{budget})[0]
	if progRecall <= randRecall {
		t.Errorf("progressive recall %f must beat random order %f at a 10%% budget",
			progRecall, randRecall)
	}
	// Full budget: same recall by construction.
	full := len(ordered)
	if RecallCurve(ordered, truth, []int{full})[0] != RecallCurve(shuffled, truth, []int{full})[0] {
		t.Error("full-budget recall must be order-independent")
	}
}

func TestRecallCurveKeepsCallerBudgetOrder(t *testing.T) {
	truth := []data.Pair{data.NewPair("a", "b"), data.NewPair("c", "d")}
	ordered := []data.Pair{
		data.NewPair("a", "b"),
		data.NewPair("a", "c"),
		data.NewPair("c", "d"),
	}
	// Unsorted budgets with duplicates, a non-positive entry and one
	// past the stream end: the output must line up position-for-position
	// with the caller's slice, which must come back untouched.
	budgets := []int{10, 1, 3, 3, 0, -2}
	orig := append([]int(nil), budgets...)
	got := RecallCurve(ordered, truth, budgets)
	want := []float64{1, 0.5, 1, 1, 0, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("curve = %v, want %v", got, want)
		}
	}
	for i := range orig {
		if budgets[i] != orig[i] {
			t.Fatalf("budgets mutated: %v, want %v", budgets, orig)
		}
	}
}

func TestRecallCurveEmptyStreamAndOrientation(t *testing.T) {
	truth := []data.Pair{data.NewPair("a", "b")}
	if got := RecallCurve(nil, truth, []int{1, 5}); got[0] != 0 || got[1] != 0 {
		t.Errorf("empty stream must give zero recall, got %v", got)
	}
	// Pairs arriving in reversed orientation on either side still
	// count: both stream and truth normalise before comparing.
	ordered := []data.Pair{{A: "b", B: "a"}}
	reversedTruth := []data.Pair{{A: "b", B: "a"}}
	if got := RecallCurve(ordered, truth, []int{1}); got[0] != 1 {
		t.Errorf("reversed stream pair missed: %v", got)
	}
	if got := RecallCurve(ordered, reversedTruth, []int{1}); got[0] != 1 {
		t.Errorf("reversed truth pair missed: %v", got)
	}
}

func TestProgressiveMaxBlockBoundaryKeepsExactLimit(t *testing.T) {
	recs := []*data.Record{
		rec("q1", "shared"), rec("q2", "shared"), rec("q3", "shared"),
	}
	// A block exactly at the limit survives; one past it is purged.
	if got := rankedOf(t, Standard{Key: TokenKey("title"), MaxBlock: 3}, recs, Opts{}); len(got) != 3 {
		t.Errorf("block exactly at MaxBlock must be kept, got %d pairs", len(got))
	}
	recs = append(recs, rec("q4", "shared"))
	if got := rankedOf(t, Standard{Key: TokenKey("title"), MaxBlock: 3}, recs, Opts{}); len(got) != 0 {
		t.Errorf("block one past MaxBlock must be purged, got %d pairs", len(got))
	}
}

func TestProgressiveStreamSpillsUnderPairBudget(t *testing.T) {
	w := datagen.NewWorld(datagen.WorldConfig{Seed: 103, NumEntities: 60, Categories: []string{"camera"}})
	web := datagen.BuildWeb(w, datagen.SourceConfig{
		Seed: 104, NumSources: 10, DirtLevel: 1, HeadFraction: 0.4, TailCoverage: 0.3,
	})
	records := web.Dataset.Records()
	want := rankedOf(t, Standard{Key: TokenKey("title"), MaxBlock: 200}, records, Opts{})
	if len(want) == 0 {
		t.Fatal("no pairs")
	}

	budgeted := NewEngineOpts(records, Opts{PairMemBudget: 1, SpillDir: t.TempDir()})
	cs := budgeted.Blocks(TokenKey("title")).Purge(200).ProgressiveOrder().CandidateSet()
	if err := budgeted.Err(); err != nil {
		t.Fatal(err)
	}
	if !cs.Spilled() {
		t.Fatal("a 1-byte pair budget must spill the progressive stream")
	}
	var got []data.Pair
	cs.EmitPairs(func(p data.Pair) bool {
		got = append(got, p)
		return true
	})
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("spilled stream has %d pairs, in-memory %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("spilled order diverged at %d: %v vs %v", i, got[i], want[i])
		}
	}
}
