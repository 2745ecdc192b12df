package blocking

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/data"
	"repro/internal/similarity"
)

func rec(id, title string) *data.Record {
	return data.NewRecord(id, "s").Set("title", data.String(title))
}

func sampleRecords() []*data.Record {
	return []*data.Record{
		rec("r1", "canon eos camera"),
		rec("r2", "canon eos camera pro"),
		rec("r3", "nikon coolpix"),
		rec("r4", "nikon coolpix zoom"),
		rec("r5", "sony tv bravia"),
	}
}

func pairSet(ps []data.Pair) map[data.Pair]bool {
	m := map[data.Pair]bool{}
	for _, p := range ps {
		m[p] = true
	}
	return m
}

// candidatesOf runs b's Candidates over a fresh engine with o and
// returns the pairs, failing t on an engine error.
func candidatesOf(t testing.TB, b Blocker, recs []*data.Record, o Opts) []data.Pair {
	t.Helper()
	e := NewEngineOpts(recs, o)
	pairs := b.Candidates(e).Pairs()
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	return pairs
}

// rankedOf is candidatesOf for b's Ranked order.
func rankedOf(t testing.TB, b RankedBlocker, recs []*data.Record, o Opts) []data.Pair {
	t.Helper()
	e := NewEngineOpts(recs, o)
	pairs := b.Ranked(e).Pairs()
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	return pairs
}

// buildBlocks is the one-shot engine form the tests start from.
func buildBlocks(records []*data.Record, key KeyFunc) *Indexed {
	return NewEngineOpts(records, Opts{}).Blocks(key)
}

func TestBuildBlocksAndPairs(t *testing.T) {
	blocks := buildBlocks(sampleRecords(), AttrPrefixKey("title", 3))
	// canon×2 ("can"), nikon×2 ("nik"), sony×1 ("son").
	if blocks.NumBlocks() != 3 {
		t.Fatalf("blocks = %d, want 3", blocks.NumBlocks())
	}
	pairs := blocks.Pairs()
	want := []data.Pair{data.NewPair("r1", "r2"), data.NewPair("r3", "r4")}
	got := pairSet(pairs)
	if len(pairs) != 2 || !got[want[0]] || !got[want[1]] {
		t.Errorf("pairs = %v", pairs)
	}
	if blocks.Comparisons() != 2 {
		t.Errorf("comparisons = %d", blocks.Comparisons())
	}
}

func TestPairsDeduplicatesAcrossBlocks(t *testing.T) {
	// Token blocking puts (r1,r2) in both "canon" and "eos" blocks.
	blocks := buildBlocks(sampleRecords(), TokenKey("title"))
	pairs := blocks.Pairs()
	seen := map[data.Pair]int{}
	for _, p := range pairs {
		seen[p]++
		if seen[p] > 1 {
			t.Fatalf("pair %v appears twice", p)
		}
	}
	if blocks.Comparisons() <= len(pairs) {
		t.Error("comparisons (with redundancy) must exceed distinct pairs here")
	}
}

func TestPurge(t *testing.T) {
	recs := make([]*data.Record, 20)
	for i := range recs {
		recs[i] = rec(fmt.Sprintf("r%02d", i), "common brand")
	}
	blocks := buildBlocks(recs, TokenKey("title"))
	purged := blocks.Purge(5)
	if purged.NumBlocks() != 0 {
		t.Errorf("oversized blocks must be purged, got %d blocks", purged.NumBlocks())
	}
	if got := blocks.Purge(0); got.NumBlocks() != blocks.NumBlocks() {
		t.Error("maxSize<=0 must be a no-op")
	}
}

func TestStandardBlockerMissingValues(t *testing.T) {
	recs := append(sampleRecords(), data.NewRecord("r6", "s")) // no title
	pairs := candidatesOf(t, Standard{Key: AttrExactKey("title")}, recs, Opts{})
	for _, p := range pairs {
		if p.A == "r6" || p.B == "r6" {
			t.Fatal("record without key must generate no candidates")
		}
	}
}

func TestSortedNeighborhoodWindow(t *testing.T) {
	recs := []*data.Record{
		rec("a", "aaa"), rec("b", "aab"), rec("c", "aac"), rec("d", "aad"), rec("e", "aae"),
	}
	sn := SortedNeighborhood{Keys: []KeyFunc{AttrExactKey("title")}, Window: 2}
	pairs := candidatesOf(t, sn, recs, Opts{})
	// Window 2: only adjacent pairs → 4 pairs.
	if len(pairs) != 4 {
		t.Fatalf("window-2 pairs = %d, want 4", len(pairs))
	}
	sn.Window = 5
	if got := len(candidatesOf(t, sn, recs, Opts{})); got != 10 {
		t.Fatalf("window-5 pairs = %d, want all 10", got)
	}
}

func TestSortedNeighborhoodMultiPass(t *testing.T) {
	// Pass 1 sorts by title prefix; pass 2 by suffix-reversed key would
	// rescue records whose prefix was corrupted. Simulate with two keys.
	recs := []*data.Record{
		rec("x1", "zcanon eos"), // corrupted prefix
		rec("x2", "canon eos"),
		rec("x3", "nikon z"),
	}
	firstTok := func(r *data.Record) []string { return []string{tokenFirst(r.Get("title").String())} }
	lastTok := func(r *data.Record) []string { return []string{tokenLast(r.Get("title").String())} }
	single := SortedNeighborhood{Keys: []KeyFunc{firstTok}, Window: 2}
	multi := SortedNeighborhood{Keys: []KeyFunc{firstTok, lastTok}, Window: 2}
	singleSet := pairSet(candidatesOf(t, single, recs, Opts{}))
	multiSet := pairSet(candidatesOf(t, multi, recs, Opts{}))
	if len(multiSet) < len(singleSet) {
		t.Error("multi-pass must not lose candidates")
	}
	if !multiSet[data.NewPair("x1", "x2")] {
		t.Error("second pass must rescue the corrupted-prefix pair")
	}
}

func tokenFirst(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' {
			return s[:i]
		}
	}
	return s
}

func tokenLast(s string) string {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == ' ' {
			return s[i+1:]
		}
	}
	return s
}

func TestQGramKeyToleratesTypos(t *testing.T) {
	recs := []*data.Record{rec("t1", "powershot"), rec("t2", "powershoot")}
	exact := candidatesOf(t, Standard{Key: AttrExactKey("title")}, recs, Opts{})
	if len(exact) != 0 {
		t.Fatal("exact key must miss the typo pair")
	}
	qg := candidatesOf(t, Standard{Key: QGramKey("title", 3)}, recs, Opts{})
	if !pairSet(qg)[data.NewPair("t1", "t2")] {
		t.Error("q-gram blocking must catch the typo pair")
	}
}

func TestSuffixKey(t *testing.T) {
	recs := []*data.Record{rec("u1", "xcanon"), rec("u2", "ycanon")}
	pairs := candidatesOf(t, Standard{Key: SuffixKey("title", 4)}, recs, Opts{})
	if !pairSet(pairs)[data.NewPair("u1", "u2")] {
		t.Error("suffix blocking must match on shared suffix")
	}
	short := candidatesOf(t, Standard{Key: SuffixKey("title", 40)}, recs, Opts{})
	if len(short) != 0 {
		t.Error("minLen longer than values must yield nothing")
	}
}

func TestCanopy(t *testing.T) {
	sim := func(a, b *data.Record) float64 {
		return similarity.Jaccard(a.Get("title").Str, b.Get("title").Str)
	}
	recs := sampleRecords()
	pairs := candidatesOf(t, Canopy{Sim: sim, Loose: 0.3, Tight: 0.8}, recs, Opts{})
	got := pairSet(pairs)
	if !got[data.NewPair("r1", "r2")] || !got[data.NewPair("r3", "r4")] {
		t.Errorf("canopy missed close pairs: %v", pairs)
	}
	if got[data.NewPair("r1", "r5")] {
		t.Error("canopy must not pair unrelated records")
	}
}

func TestCanopyTerminates(t *testing.T) {
	// Even with thresholds that never remove non-centres, the centre
	// itself is consumed each round, so it must terminate.
	sim := func(a, b *data.Record) float64 { return 0 }
	recs := sampleRecords()
	if pairs := candidatesOf(t, Canopy{Sim: sim, Loose: 0.9, Tight: 0.99}, recs, Opts{}); len(pairs) != 0 {
		t.Errorf("zero-similarity canopy must yield no pairs, got %v", pairs)
	}
}

func TestBlockingInvariantNoSelfPairs(t *testing.T) {
	f := func(n uint8) bool {
		recs := make([]*data.Record, int(n%20)+2)
		for i := range recs {
			recs[i] = rec(fmt.Sprintf("p%03d", i), fmt.Sprintf("title %d", i%5))
		}
		for _, p := range candidatesOf(t, Standard{Key: TokenKey("title")}, recs, Opts{}) {
			if p.A == p.B || p.A > p.B {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// raceEnabled reports a -race build, whose instrumentation changes
// allocation counts.
var raceEnabled bool

// TestTokenKeysAllocateOnce: the token keys of a normalised three-word
// title cost one allocation, the key slice the words are appended to.
func TestTokenKeysAllocateOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	r := rec("r1", "canon eos camera")
	for name, key := range map[string]KeyFunc{"TokenKey": TokenKey("title"), "AllTokensKey": AllTokensKey()} {
		var keys []string
		if n := testing.AllocsPerRun(100, func() { keys = key(r) }); n != 1 {
			t.Errorf("%s: %v allocations per call, want 1", name, n)
		}
		if len(keys) != 3 {
			t.Errorf("%s: keys %q, want three words", name, keys)
		}
	}
}
