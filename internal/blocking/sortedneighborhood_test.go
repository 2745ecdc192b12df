package blocking

import (
	"fmt"
	"testing"

	"repro/internal/data"
)

// snRecords builds n records whose sort key is the record index itself,
// so the window structure is fully predictable.
func snRecords(n int) []*data.Record {
	recs := make([]*data.Record, 0, n)
	for i := 0; i < n; i++ {
		recs = append(recs, data.NewRecord(
			fmt.Sprintf("r%03d", i), "s").Set("k", data.String(fmt.Sprintf("%03d", i))))
	}
	return recs
}

func snKey(attr string) KeyFunc {
	return func(r *data.Record) []string {
		if !r.Has(attr) {
			return nil
		}
		return []string{r.Get(attr).String()}
	}
}

// TestSortedNeighborhoodWindowBoundaries pins the pair counts at the
// window-size edge cases: the minimum window, windows that exactly
// cover the corpus, and over-sized windows.
func TestSortedNeighborhoodWindowBoundaries(t *testing.T) {
	const n = 6
	recs := snRecords(n)
	cases := []struct {
		window int
		want   int
	}{
		{window: 2, want: n - 1},                                 // adjacent pairs only
		{window: 3, want: (n - 1) + (n - 2)},                     // two diagonals
		{window: n, want: n * (n - 1) / 2},                       // exactly all pairs
		{window: n + 1, want: n * (n - 1) / 2},                   // over-sized: still all pairs
		{window: 100, want: n * (n - 1) / 2},                     // far over-sized
		{window: 0, want: (n - 1) + (n - 2) + (n - 3) + (n - 4)}, // default w=5
		{window: 1, want: (n - 1) + (n - 2) + (n - 3) + (n - 4)}, // <2 ⇒ default w=5
	}
	for _, tc := range cases {
		sn := SortedNeighborhood{Keys: []KeyFunc{snKey("k")}, Window: tc.window}
		got := candidatesOf(t, sn, recs, Opts{})
		if len(got) != tc.want {
			t.Errorf("window %d: got %d pairs, want %d", tc.window, len(got), tc.want)
		}
	}
}

// TestSortedNeighborhoodWindowTwoAdjacency: at the minimum window the
// candidate list is exactly the chain of sort-order neighbours.
func TestSortedNeighborhoodWindowTwoAdjacency(t *testing.T) {
	recs := snRecords(5)
	sn := SortedNeighborhood{Keys: []KeyFunc{snKey("k")}, Window: 2}
	got := candidatesOf(t, sn, recs, Opts{})
	want := []data.Pair{
		{A: "r000", B: "r001"}, {A: "r001", B: "r002"},
		{A: "r002", B: "r003"}, {A: "r003", B: "r004"},
	}
	samePairs(t, "window=2 chain", want, got)
}

// TestSortedNeighborhoodSkipsKeylessRecords: records yielding no key or
// an empty key never enter the window.
func TestSortedNeighborhoodSkipsKeylessRecords(t *testing.T) {
	recs := snRecords(4)
	recs = append(recs,
		data.NewRecord("r-nokey", "s"), // no attribute at all
		data.NewRecord("r-empty", "s").Set("k", data.String("")))
	sn := SortedNeighborhood{Keys: []KeyFunc{snKey("k")}, Window: 100}
	got := candidatesOf(t, sn, recs, Opts{})
	if want := 4 * 3 / 2; len(got) != want {
		t.Fatalf("got %d pairs, want %d (keyless records must not pair)", len(got), want)
	}
	for _, p := range got {
		if p.A == "r-nokey" || p.B == "r-nokey" || p.A == "r-empty" || p.B == "r-empty" {
			t.Fatalf("keyless record appeared in pair %v", p)
		}
	}
}

// TestSortedNeighborhoodMultiPassDedups: two passes whose windows
// overlap union without duplicates, and workers don't change output.
func TestSortedNeighborhoodMultiPassDedups(t *testing.T) {
	recs := snRecords(8)
	// Second key reverses the sort order: identical neighbourhoods, so
	// the multi-pass union must collapse to the single-pass output.
	for i, r := range recs {
		r.Set("rev", data.String(fmt.Sprintf("%03d", len(recs)-i)))
	}
	single := candidatesOf(t, SortedNeighborhood{Keys: []KeyFunc{snKey("k")}, Window: 3}, recs, Opts{})
	multi := candidatesOf(t, SortedNeighborhood{Keys: []KeyFunc{snKey("k"), snKey("rev")}, Window: 3}, recs, Opts{})
	if len(multi) != len(single) {
		t.Fatalf("multi-pass got %d pairs, want %d (dup pairs must dedup)", len(multi), len(single))
	}
	for _, w := range workerCounts {
		got := candidatesOf(t, SortedNeighborhood{Keys: []KeyFunc{snKey("k"), snKey("rev")}, Window: 3}, recs, Opts{Workers: w})
		samePairs(t, fmt.Sprintf("workers=%d", w), multi, got)
	}
}

// TestUnionCandidatesEmptyAndNil: unions over any mix of nil sets,
// empty sets and zero operands behave like the empty set and stay
// usable (Len/Pairs/EmitPairs/Close); a spilled operand is materialised
// into an in-memory union and stays its caller's to close.
func TestUnionCandidatesEmptyAndNil(t *testing.T) {
	recs := detRecords(60)
	// One engine whose pair budget holds the identifier pass in memory
	// and spills the token pass.
	raw := NewEngineOpts(recs, Opts{}).Blocks(AttrExactKey("pid")).Comparisons()
	e := NewEngineOpts(recs, Opts{PairMemBudget: int64(raw) * 8, SpillDir: t.TempDir()})
	full := e.Blocks(AttrExactKey("pid")).CandidateSet()
	if full.Len() == 0 || full.Spilled() {
		t.Fatal("fixture produced no in-memory pairs")
	}
	empty := e.Blocks(AttrExactKey("missing-attr")).CandidateSet()
	if empty.Len() != 0 {
		t.Fatal("fixture empty set is not empty")
	}

	checkEmpty := func(name string, cs *CandidateSet) {
		t.Helper()
		if cs == nil {
			t.Fatalf("%s: nil result", name)
		}
		if cs.Len() != 0 || len(cs.Pairs()) != 0 {
			t.Fatalf("%s: want empty set, got Len=%d", name, cs.Len())
		}
		cs.EmitPairs(func(data.Pair) bool {
			t.Fatalf("%s: EmitPairs called back on an empty set", name)
			return false
		})
		if err := cs.Close(); err != nil {
			t.Fatalf("%s: Close: %v", name, err)
		}
	}
	checkEmpty("no operands", e.Union())
	checkEmpty("single nil", e.Union(nil))
	checkEmpty("all nil", e.Union(nil, nil, nil))
	checkEmpty("empty + nil", e.Union(empty, nil, empty))

	// Mixed: nil and empty operands are invisible; the union of a
	// single real set is that set's pair list.
	for name, got := range map[string]*CandidateSet{
		"nil+full":       e.Union(nil, full),
		"full+nil":       e.Union(full, nil),
		"empty+full+nil": e.Union(empty, full, nil),
		"nil+empty+full": e.Union(nil, empty, full),
	} {
		samePairs(t, name, full.Pairs(), got.Pairs())
	}

	token := NewEngineOpts(recs, Opts{}).Blocks(TokenKey("title")).Pairs()
	spilled := e.Blocks(TokenKey("title")).CandidateSet()
	defer spilled.Close()
	if !spilled.Spilled() {
		t.Fatal("fixture did not spill")
	}
	u := e.Union(nil, empty, spilled)
	if u.Spilled() {
		t.Fatal("union of a spilled operand is not in memory")
	}
	samePairs(t, "nil+empty+spilled", token, u.Pairs())
	if err := u.Close(); err != nil {
		t.Fatal(err)
	}
	samePairs(t, "spilled operand after union Close", token, spilled.Pairs())
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
}
