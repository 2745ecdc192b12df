package linkage

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/data"
)

func retractRecord(id, title string) *data.Record {
	return data.NewRecord(id, "s").Set("title", data.String(title))
}

// checkPostings fails unless inc's posting lists are the ones FromState
// rebuilds from its State: each live record once under each of its
// keys, in insertion order, and nothing else.
func checkPostings(tb testing.TB, where string, inc *Incremental) {
	tb.Helper()
	rebuilt, err := FromState(inc.State(), TitleTokenKey, incMatcher())
	if err != nil {
		tb.Fatalf("%s: FromState of the linker's own State: %v", where, err)
	}
	if !reflect.DeepEqual(inc.index, rebuilt.index) {
		tb.Fatalf("%s: postings %v, the rebuilt ones %v", where, inc.index, rebuilt.index)
	}
}

func TestIncrementalDeleteNeverInserted(t *testing.T) {
	inc := NewIncremental(TitleTokenKey, incMatcher())
	src := &data.Source{ID: "s"}
	if _, err := inc.Insert(src, retractRecord("r1", "acme rocket skate")); err != nil {
		t.Fatal(err)
	}
	if inc.Delete("ghost") {
		t.Error("deleting a never-inserted ID must report false")
	}
	if inc.Len() != 1 {
		t.Errorf("no-op delete mutated state: len=%d", inc.Len())
	}
	checkPostings(t, "after a no-op delete", inc)
	// The linker keeps working after the no-op.
	if m, err := inc.Insert(src, retractRecord("r2", "acme rocket skate pro")); err != nil || len(m) != 1 {
		t.Fatalf("insert after no-op delete: %v %v", m, err)
	}
}

func TestIncrementalDeleteSameIDTwice(t *testing.T) {
	inc := NewIncremental(TitleTokenKey, incMatcher())
	src := &data.Source{ID: "s"}
	for i, title := range []string{"acme rocket skate", "acme rocket skate pro"} {
		if _, err := inc.Insert(src, retractRecord(fmt.Sprintf("r%d", i), title)); err != nil {
			t.Fatal(err)
		}
	}
	if !inc.Delete("r0") {
		t.Fatal("first delete must succeed")
	}
	if inc.Delete("r0") {
		t.Error("second delete of the same ID must be a no-op")
	}
	if inc.Len() != 1 {
		t.Errorf("after duplicate delete: len=%d, want 1", inc.Len())
	}
	if want := map[string][]string{"acme": {"r1"}, "rocket": {"r1"}, "skate": {"r1"}, "pro": {"r1"}}; !reflect.DeepEqual(inc.index, want) {
		t.Errorf("postings after duplicate delete %v, want %v", inc.index, want)
	}
	clusters := inc.Clusters()
	if len(clusters) != 1 || len(clusters[0]) != 1 || clusters[0][0] != "r1" {
		t.Errorf("clusters after delete = %v, want [[r1]]", clusters)
	}
}

func TestIncrementalDeleteLastMemberOfCluster(t *testing.T) {
	inc := NewIncremental(TitleTokenKey, incMatcher())
	src := &data.Source{ID: "s"}
	if _, err := inc.Insert(src, retractRecord("solo", "unique widget xj9")); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Insert(src, retractRecord("other", "different thing entirely")); err != nil {
		t.Fatal(err)
	}
	if !inc.Delete("solo") {
		t.Fatal("delete failed")
	}
	for _, cl := range inc.Clusters() {
		for _, id := range cl {
			if id == "solo" {
				t.Fatalf("deleted singleton still present in partition: %v", inc.Clusters())
			}
		}
	}
	if got := len(inc.Clusters()); got != 1 {
		t.Errorf("clusters = %d, want 1", got)
	}
}

// TestIncrementalDeleteSplitsTransitiveCluster pins the recluster
// contract: a and c were joined only through bridge b, so retracting b
// must split them apart again.
func TestIncrementalDeleteSplitsTransitiveCluster(t *testing.T) {
	inc := NewIncremental(TitleTokenKey, incMatcher())
	src := &data.Source{ID: "s"}
	// a ~ b (share 3/4 tokens), b ~ c (share 3/4), a vs c share 2/4 —
	// below the 0.6 Jaccard threshold.
	for _, rc := range []struct{ id, title string }{
		{"a", "acme rocket skate turbo"},
		{"b", "acme rocket skate deluxe"},
		{"c", "acme rocket deluxe primo"},
	} {
		if _, err := inc.Insert(src, retractRecord(rc.id, rc.title)); err != nil {
			t.Fatal(err)
		}
	}
	if !inc.uf.Same("a", "c") {
		t.Fatal("setup: a and c should be transitively linked through b")
	}
	if !inc.Delete("b") {
		t.Fatal("delete failed")
	}
	if inc.uf.Same("a", "c") {
		t.Errorf("a and c still clustered after their bridge was deleted: %v", inc.Clusters())
	}
}

// TestIncrementalDeleteThenReinsertEqualsInsertOnly pins that a
// delete + reinsert of the same record converges to the insert-only
// partition: the revived record re-earns exactly its old links, and
// its first life leaves nothing in the posting lists.
func TestIncrementalDeleteThenReinsertEqualsInsertOnly(t *testing.T) {
	titles := []struct{ id, title string }{
		{"r0", "acme rocket skate"},
		{"r1", "zenix blender pro"},
		{"r2", "acme rocket skate pro"},
		{"r3", "omega juicer deluxe"},
		{"r4", "zenix blender"},
	}
	src := &data.Source{ID: "s"}
	build := func() *Incremental {
		inc := NewIncremental(TitleTokenKey, incMatcher())
		for _, rc := range titles {
			if _, err := inc.Insert(src, retractRecord(rc.id, rc.title)); err != nil {
				t.Fatal(err)
			}
		}
		return inc
	}

	insertOnly := build()
	churned := build()
	for _, victim := range []string{"r2", "r4"} {
		if !churned.Delete(victim) {
			t.Fatalf("delete %s failed", victim)
		}
	}
	for _, rc := range titles {
		if rc.id == "r2" || rc.id == "r4" {
			if _, err := churned.Insert(src, retractRecord(rc.id, rc.title)); err != nil {
				t.Fatal(err)
			}
		}
	}

	want := fmt.Sprint(insertOnly.Clusters())
	got := fmt.Sprint(churned.Clusters())
	if got != want {
		t.Errorf("delete-then-reinsert partition %s differs from insert-only %s", got, want)
	}
	checkPostings(t, "after delete and reinsert", churned)
	if churned.Len() != insertOnly.Len() {
		t.Errorf("len %d vs %d", churned.Len(), insertOnly.Len())
	}
}

// TestIncrementalStateRoundTripAfterDeletes extends the round-trip
// contract to deleted state: a linker restored from the State of one
// that applied deletes holds the original's posting lists and keeps
// behaving identically to it.
func TestIncrementalStateRoundTripAfterDeletes(t *testing.T) {
	src := &data.Source{ID: "s"}
	orig := NewIncremental(TitleTokenKey, incMatcher())
	for i := 0; i < 10; i++ {
		r := retractRecord(fmt.Sprintf("r%d", i), fmt.Sprintf("widget mk%d shared", i))
		if _, err := orig.Insert(src, r); err != nil {
			t.Fatal(err)
		}
	}
	orig.Delete("r4")
	orig.Delete("r8")

	restored, err := FromState(orig.State(), TitleTokenKey, incMatcher())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig.index, restored.index) {
		t.Fatalf("restored postings are not the original's:\n%v\n%v", restored.index, orig.index)
	}
	for i, inc := range []*Incremental{orig, restored} {
		m, err := inc.Insert(src, retractRecord("probe", "widget mk1 shared"))
		if err != nil {
			t.Fatalf("linker %d: %v", i, err)
		}
		for _, id := range m {
			if id == "r4" || id == "r8" {
				t.Fatalf("linker %d matched deleted record %s", i, id)
			}
		}
	}
	if a, b := fmt.Sprint(orig.Clusters()), fmt.Sprint(restored.Clusters()); a != b {
		t.Errorf("clusters diverged:\n%s\n%s", a, b)
	}
	if orig.Comparisons() != restored.Comparisons() {
		t.Errorf("comparisons %d vs %d", orig.Comparisons(), restored.Comparisons())
	}
	if !reflect.DeepEqual(orig.index, restored.index) {
		t.Errorf("postings diverged after the probe:\n%v\n%v", orig.index, restored.index)
	}
}

// TestFromStateRejectsGhosts hand-builds states whose partition does not
// place every restored record exactly once. A member that is not a
// record used to load: the ghost then sat in Clusters(), and the first
// Delete in its component handed Matcher.Match a nil record. A record
// the partition leaves out used to load as a silent singleton.
func TestFromStateRejectsGhosts(t *testing.T) {
	valid := func() *IncrementalState {
		return &IncrementalState{
			Sources: []*data.Source{{ID: "s"}},
			Records: []*data.Record{
				retractRecord("a", "acme rocket skate"),
				retractRecord("b", "acme rocket skate pro"),
			},
			Partition: [][]string{{"a", "b"}},
		}
	}
	inc, err := FromState(valid(), TitleTokenKey, incMatcher())
	if err != nil {
		t.Fatalf("a state placing every record once must load: %v", err)
	}
	if got := fmt.Sprint(inc.Clusters()); got != "[[a b]]" || inc.Len() != 2 {
		t.Fatalf("restored clusters %s, len %d", got, inc.Len())
	}
	if want := map[string][]string{"acme": {"a", "b"}, "rocket": {"a", "b"}, "skate": {"a", "b"}, "pro": {"b"}}; !reflect.DeepEqual(inc.index, want) {
		t.Fatalf("restored postings %v, want %v", inc.index, want)
	}
	for name, corrupt := range map[string]func(*IncrementalState){
		"partition member that is not a record": func(st *IncrementalState) {
			st.Partition = [][]string{{"a", "b", "ghost"}}
		},
		"partition set of a deleted ID": func(st *IncrementalState) {
			st.Partition = append(st.Partition, []string{"gone"})
		},
		"ID in two partition sets": func(st *IncrementalState) {
			st.Partition = [][]string{{"a", "b"}, {"b"}}
		},
		"ID twice in one partition set": func(st *IncrementalState) {
			st.Partition = [][]string{{"a", "a", "b"}}
		},
		"record in no partition set": func(st *IncrementalState) {
			st.Partition = [][]string{{"b"}}
		},
	} {
		st := valid()
		corrupt(st)
		if _, err := FromState(st, TitleTokenKey, incMatcher()); err == nil {
			t.Errorf("%s: FromState accepted it", name)
		}
	}
}

// deleteCostCorpus builds a linker holding one five-record component —
// the titles share four of five tokens, so every pair links — beside
// `singletons` records that share no token with anything.
func deleteCostCorpus(tb testing.TB, singletons int) (inc *Incremental, src *data.Source, member *data.Record) {
	tb.Helper()
	inc = NewIncremental(TitleTokenKey, incMatcher())
	src = &data.Source{ID: "s"}
	insert := func(r *data.Record) {
		if _, err := inc.Insert(src, r); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < singletons; i++ {
		insert(retractRecord(fmt.Sprintf("solo%05d", i), fmt.Sprintf("only%d item%d", i, i)))
	}
	for i := 0; i < 5; i++ {
		member = retractRecord(fmt.Sprintf("m%d", i), fmt.Sprintf("acme rocket skate turbo v%d", i))
		insert(member)
	}
	if got := len(inc.Clusters()); got != singletons+1 {
		tb.Fatalf("%d clusters, want %d singletons and one component", got, singletons)
	}
	return inc, src, member
}

// TestDeleteCostIndependentOfCorpus pins the shape of a retraction's
// cost by counting: deleting and re-inserting one member of a
// five-record component allocates the same, walks the same forest slots
// and touches the same two dataset list slots whether 2,000 or 20,000
// unrelated records sit beside it, and endless churn reuses forest slots
// instead of growing the arrays and leaves in the posting lists exactly
// the live records' slots.
func TestDeleteCostIndependentOfCorpus(t *testing.T) {
	measure := func(singletons int) (allocs float64, visits, listVisits int) {
		inc, src, member := deleteCostCorpus(t, singletons)
		cycle := func() {
			if !inc.Delete(member.ID) {
				t.Fatal("delete failed")
			}
			if m, err := inc.Insert(src, member); err != nil || len(m) != 4 {
				t.Fatalf("reinsert matched %v, %v", m, err)
			}
		}
		before, listBefore := inc.uf.visits, inc.dataset.SlotVisits()
		cycle()
		visits, listVisits = inc.uf.visits-before, inc.dataset.SlotVisits()-listBefore
		return testing.AllocsPerRun(20, cycle), visits, listVisits
	}
	allocs2k, visits2k, list2k := measure(2000)
	allocs20k, visits20k, list20k := measure(20000)
	t.Logf("delete + reinsert: %.0f allocs, %d forest and %d dataset slot visits beside 2k records; %.0f, %d and %d beside 20k",
		allocs2k, visits2k, list2k, allocs20k, visits20k, list20k)
	if visits2k != 5 || visits20k != 5 {
		t.Errorf("slot visits %d beside 2k records and %d beside 20k, want the component's 5 at both", visits2k, visits20k)
	}
	if list2k != 2 || list20k != 2 {
		t.Errorf("dataset list visits %d beside 2k records and %d beside 20k, want the record's own 2 slots at both", list2k, list20k)
	}
	if d := allocs20k - allocs2k; d < -2 || d > 2 {
		t.Errorf("allocations %.0f beside 2k records, %.0f beside 20k: the cost follows the corpus", allocs2k, allocs20k)
	}

	inc, src, _ := deleteCostCorpus(t, 95)
	for i := 0; i < 10000; i++ {
		r := retractRecord(fmt.Sprintf("churn%d", i), fmt.Sprintf("brief%d visit%d", i, i))
		if _, err := inc.Insert(src, r); err != nil {
			t.Fatal(err)
		}
		if !inc.Delete(r.ID) {
			t.Fatal("delete failed")
		}
	}
	if got := len(inc.uf.ids); got > 101 {
		t.Errorf("forest arrays hold %d slots after 10,000 insert/delete cycles over 100 records, want at most 101", got)
	}
	if inc.uf.Len() != 100 {
		t.Errorf("forest tracks %d IDs, want the 100 live records", inc.uf.Len())
	}
	slots := 0
	for _, ids := range inc.index {
		slots += len(ids)
	}
	if len(inc.index) != 199 || slots != 215 {
		t.Errorf("posting lists hold %d keys and %d slots after 10,000 insert/delete cycles, want the 100 live records' 199 and 215", len(inc.index), slots)
	}
	checkPostings(t, "after 10,000 insert/delete cycles", inc)
}

// BenchmarkIncrementalDelete times the same delete + reinsert cycle.
func BenchmarkIncrementalDelete(b *testing.B) {
	for _, size := range []struct {
		name       string
		singletons int
	}{{"2k", 2000}, {"20k", 20000}} {
		b.Run(size.name, func(b *testing.B) {
			inc, src, member := deleteCostCorpus(b, size.singletons)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inc.Delete(member.ID)
				if _, err := inc.Insert(src, member); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
