package linkage

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/similarity"
)

func incMatcher() Matcher {
	return ThresholdMatcher{
		Comparator: similarity.UniformComparator(similarity.Jaccard, "title"),
		Threshold:  0.6,
	}
}

func TestIncrementalLinksStreamingDuplicates(t *testing.T) {
	inc := NewIncremental(TitleTokenKey, incMatcher())
	src := &data.Source{ID: "s"}
	r1 := data.NewRecord("r1", "s").Set("title", data.String("acme rocket skate"))
	r2 := data.NewRecord("r2", "s").Set("title", data.String("zenix blender"))
	r3 := data.NewRecord("r3", "s").Set("title", data.String("acme rocket skate pro"))

	if m, err := inc.Insert(src, r1); err != nil || len(m) != 0 {
		t.Fatalf("first insert: %v %v", m, err)
	}
	if m, err := inc.Insert(src, r2); err != nil || len(m) != 0 {
		t.Fatalf("unrelated insert: %v %v", m, err)
	}
	m, err := inc.Insert(src, r3)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 1 || m[0] != "r1" {
		t.Fatalf("r3 should match r1, got %v", m)
	}
	clusters := inc.Clusters()
	if len(clusters) != 2 {
		t.Fatalf("clusters = %v", clusters)
	}
	if inc.Len() != 3 {
		t.Errorf("Len = %d", inc.Len())
	}
	if inc.Comparisons() == 0 {
		t.Error("comparisons must be counted")
	}
}

func TestTitleTokenKeySorted(t *testing.T) {
	r := data.NewRecord("r", "s").
		Set("title", data.String("zulu yankee xray whiskey victor uniform"))
	keys := TitleTokenKey(r)
	if len(keys) != 6 {
		t.Fatalf("keys = %v, want 6 distinct tokens", keys)
	}
	if !sort.StringsAreSorted(keys) {
		t.Fatalf("TitleTokenKey must return sorted keys, got %v", keys)
	}
}

// TestIncrementalInsertMatchOrderDeterministic pins the probe order of
// Insert: 6 existing records each own one distinct title token, a new
// record carries all 6 tokens, and the Overlap metric scores every
// probe 1 (the 1-token set is fully contained), so `matched` lists all
// 6 — in key probe order. Were TitleTokenKey to iterate a word map
// directly there are 6! = 720 possible orders, and 20 fresh runs catch
// a regression with probability ≈ 1.
func TestIncrementalInsertMatchOrderDeterministic(t *testing.T) {
	tokens := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot"}
	run := func() string {
		inc := NewIncremental(TitleTokenKey, ThresholdMatcher{
			Comparator: similarity.UniformComparator(similarity.Overlap, "title"),
			Threshold:  0.9,
		})
		src := &data.Source{ID: "s"}
		for i, tok := range tokens {
			r := data.NewRecord(fmt.Sprintf("r%d", i), "s").
				Set("title", data.String(tok))
			if _, err := inc.Insert(src, r); err != nil {
				t.Fatal(err)
			}
		}
		probe := data.NewRecord("probe", "s").
			Set("title", data.String(strings.Join(tokens, " ")))
		matched, err := inc.Insert(src, probe)
		if err != nil {
			t.Fatal(err)
		}
		if len(matched) != len(tokens) {
			t.Fatalf("probe matched %v, want all %d single-token records", matched, len(tokens))
		}
		return strings.Join(matched, ",")
	}
	want := run()
	for i := 1; i < 20; i++ {
		if got := run(); got != want {
			t.Fatalf("run %d: match order %q differs from first run %q", i, got, want)
		}
	}
}

func TestIncrementalRejectsDuplicateID(t *testing.T) {
	inc := NewIncremental(TitleTokenKey, incMatcher())
	src := &data.Source{ID: "s"}
	r := data.NewRecord("r1", "s").Set("title", data.String("x y"))
	if _, err := inc.Insert(src, r); err != nil {
		t.Fatal(err)
	}
	r2 := data.NewRecord("r1", "s").Set("title", data.String("x z"))
	if _, err := inc.Insert(src, r2); err == nil {
		t.Error("duplicate record ID must error")
	}
}

func TestIncrementalCostStaysSublinear(t *testing.T) {
	// With distinct titles, per-insert comparisons must not grow with
	// corpus size (each record's tokens are unique).
	inc := NewIncremental(TitleTokenKey, incMatcher())
	src := &data.Source{ID: "s"}
	for i := 0; i < 300; i++ {
		r := data.NewRecord(fmt.Sprintf("u%03d", i), "s").
			Set("title", data.String(fmt.Sprintf("unique%dword alpha%d", i, i)))
		if _, err := inc.Insert(src, r); err != nil {
			t.Fatal(err)
		}
	}
	if inc.Comparisons() != 0 {
		t.Errorf("disjoint-token stream made %d comparisons, want 0", inc.Comparisons())
	}
}

func TestIncrementalMaxBlockCapsStopwordKeys(t *testing.T) {
	inc := NewIncremental(TitleTokenKey, incMatcher())
	inc.MaxBlock = 10
	src := &data.Source{ID: "s"}
	// Every record shares the token "common": blocks explode unless
	// capped.
	for i := 0; i < 100; i++ {
		r := data.NewRecord(fmt.Sprintf("c%03d", i), "s").
			Set("title", data.String(fmt.Sprintf("common item%d", i)))
		if _, err := inc.Insert(src, r); err != nil {
			t.Fatal(err)
		}
	}
	// Per insert at most MaxBlock comparisons per key × 2 keys.
	if max := 100 * 2 * inc.MaxBlock; inc.Comparisons() > max {
		t.Errorf("comparisons = %d, exceeds cap %d", inc.Comparisons(), max)
	}
}

func TestIncrementalMatchesBatchOnCleanStream(t *testing.T) {
	// Stream two copies of each of 30 entities; incremental clustering
	// must equal the ground truth.
	inc := NewIncremental(TitleTokenKey, incMatcher())
	src := &data.Source{ID: "s"}
	truth := data.Clustering{}
	for i := 0; i < 30; i++ {
		a := fmt.Sprintf("a%02d", i)
		b := fmt.Sprintf("b%02d", i)
		title := fmt.Sprintf("brand%02d product%02d series%02d", i, i, i)
		ra := data.NewRecord(a, "s").Set("title", data.String(title))
		rb := data.NewRecord(b, "s").Set("title", data.String(title+" extra"))
		if _, err := inc.Insert(src, ra); err != nil {
			t.Fatal(err)
		}
		if _, err := inc.Insert(src, rb); err != nil {
			t.Fatal(err)
		}
		truth = append(truth, data.Cluster{a, b})
	}
	got := inc.Clusters()
	gotPairs := map[data.Pair]bool{}
	for _, p := range got.Pairs() {
		gotPairs[p] = true
	}
	for _, p := range truth.Pairs() {
		if !gotPairs[p] {
			t.Errorf("missing true pair %v", p)
		}
	}
	if len(got.Pairs()) != len(truth.Pairs()) {
		t.Errorf("extra pairs: got %d, want %d", len(got.Pairs()), len(truth.Pairs()))
	}
}

// TestIncrementalStateRoundTrip pins the snapshot/restore contract: a
// linker restored from State behaves exactly like the original under
// further inserts — same clusters, same posting lists, same comparison
// count — which is what stream persistence relies on.
func TestIncrementalStateRoundTrip(t *testing.T) {
	mk := func(i int, title string) *data.Record {
		return data.NewRecord(fmt.Sprintf("r%d", i), "s").Set("title", data.String(title))
	}
	titles := []string{
		"acme rocket skate", "zenix blender pro", "acme rocket skate pro",
		"omega juicer", "zenix blender", "omega juicer deluxe",
		"acme rocket", "nova camera x100", "nova camera x100 kit",
	}
	src := &data.Source{ID: "s"}

	orig := NewIncremental(TitleTokenKey, incMatcher())
	half := len(titles) / 2
	for i, title := range titles[:half] {
		if _, err := orig.Insert(src, mk(i, title)); err != nil {
			t.Fatal(err)
		}
	}

	restored, err := FromState(orig.State(), TitleTokenKey, incMatcher())
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != orig.Len() || restored.Comparisons() != orig.Comparisons() {
		t.Fatalf("restored len/comparisons %d/%d, want %d/%d",
			restored.Len(), restored.Comparisons(), orig.Len(), orig.Comparisons())
	}

	// Both linkers consume the rest of the stream; every observable must
	// stay in lockstep.
	for i, title := range titles[half:] {
		r1 := mk(half+i, title)
		r2 := mk(half+i, title)
		m1, err1 := orig.Insert(src, r1)
		m2, err2 := restored.Insert(src, r2)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if fmt.Sprint(m1) != fmt.Sprint(m2) {
			t.Fatalf("insert %d matched %v vs %v", half+i, m1, m2)
		}
	}
	c1, c2 := fmt.Sprint(orig.Clusters()), fmt.Sprint(restored.Clusters())
	if c1 != c2 {
		t.Fatalf("clusters diverged:\n%s\n%s", c1, c2)
	}
	if orig.Comparisons() != restored.Comparisons() {
		t.Errorf("comparisons %d vs %d", orig.Comparisons(), restored.Comparisons())
	}

	// State is a snapshot: inserts after State must not leak into it.
	st := orig.State()
	n := len(st.Records)
	if _, err := orig.Insert(src, mk(99, "fresh widget")); err != nil {
		t.Fatal(err)
	}
	if len(st.Records) != n {
		t.Error("State must not alias the live record list")
	}
}
