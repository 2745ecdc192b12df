package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/source"
	"repro/internal/tokenize"
)

// dirtySetStream is a stream over one source holding `singletons`
// records no other record matches and twenty five-record clusters, all
// published once. It returns the stream and its registry.
func dirtySetStream(t *testing.T, singletons int) (*Stream, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	s, err := NewStream(StreamConfig{Obs: reg}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ep source.DeltaEpoch
	for i := 0; i < singletons; i++ {
		ep.Deltas = append(ep.Deltas, source.Upsert(dirtySetRecord(fmt.Sprintf("solo%05d", i), fmt.Sprintf("only%d item%d", i, i), 0)))
	}
	for c := 0; c < 20; c++ {
		for m := 0; m < 5; m++ {
			title := fmt.Sprintf("maker%d rocket%d skate%d turbo%d v%d", c, c, c, c, m)
			ep.Deltas = append(ep.Deltas, source.Upsert(dirtySetRecord(fmt.Sprintf("c%02dm%d", c, m), title, 0)))
		}
	}
	dirtySetApply(t, s, ep.Deltas...)
	if got := len(s.Clusters()); got != singletons+20 {
		t.Fatalf("%d clusters, want %d singletons and 20 components", got, singletons)
	}
	if _, err := s.Publish(context.Background()); err != nil {
		t.Fatal(err)
	}
	return s, reg
}

func dirtySetRecord(id, title string, version int) *data.Record {
	return data.NewRecord(id, "s").Set("title", data.String(title)).Set("version", data.Number(float64(version)))
}

func dirtySetApply(t *testing.T, s *Stream, deltas ...source.Delta) {
	t.Helper()
	metas := map[string]*data.Source{"s": {ID: "s"}}
	if err := s.ApplyDeltas(metas, source.DeltaEpoch{Seq: s.Epoch(), Deltas: deltas}); err != nil {
		t.Fatal(err)
	}
}

// clusterSignatures renders every cluster as its member IDs with the
// addresses of their records — what a cluster view is valid for.
func clusterSignatures(s *Stream) map[string]bool {
	out := map[string]bool{}
	for _, cl := range s.Clusters() {
		var b strings.Builder
		for _, id := range cl {
			fmt.Fprintf(&b, "%s@%p ", id, s.Dataset().Record(id))
		}
		out[b.String()] = true
	}
	return out
}

// TestPublishCostFollowsDirtySet pins the shape of a publish's cost by
// counting: after deltas that touch a handful of clusters a publish
// rebuilds exactly the views of the clusters whose membership or records
// changed and interns only strings of the docs it rebuilt — the same
// numbers beside 2,000 and 20,000 untouched records — a publish with
// nothing applied since the last rebuilds none and interns nothing, and
// a warm no-change publish of a stream_churn-sized view stays under
// 50,000 allocations (the from-scratch publish made 491,000).
func TestPublishCostFollowsDirtySet(t *testing.T) {
	ctx := context.Background()
	measure := func(singletons int) (rebuilt, docs int64, interned int) {
		s, reg := dirtySetStream(t, singletons)
		views, rebuiltC, reusedC, docsC := int64(singletons+20), reg.Counter("stream.views_rebuilt"), reg.Counter("stream.views_reused"), reg.Counter("stream.docs_rebuilt")
		if rebuiltC.Value() != views || reusedC.Value() != 0 || docsC.Value() != views {
			t.Fatalf("cold publish rebuilt %d views and %d docs and reused %d, want all %d built",
				rebuiltC.Value(), docsC.Value(), reusedC.Value(), views)
		}

		before := clusterSignatures(s)
		dirtySetApply(t, s,
			source.Upsert(dirtySetRecord("solo00007", "only7 item7", 1)),                         // an update in place
			source.Upsert(dirtySetRecord("solo00011", "only11 item11", 1)),                       // another
			source.Deletion("solo00013"),                                                         // a cluster gone
			source.Upsert(dirtySetRecord("fresh", "nothing like it", 0)),                         // a cluster new
			source.Upsert(dirtySetRecord("c03m9", "maker3 rocket3 skate3 turbo3 v9", 0)),         // a member joins
			source.Deletion("c05m2"),                                                             // a member leaves
			source.Upsert(dirtySetRecord("c07m0", "maker8 rocket8 skate8 turbo8 v0 bridged", 0)), // a member moves to another cluster
			source.Deletion("never-there"),
		)
		want := int64(0)
		for sig := range clusterSignatures(s) {
			if !before[sig] {
				want++
			}
		}
		if want < 6 || want > 8 {
			t.Fatalf("the deltas changed %d clusters, want a handful", want)
		}
		r0, u0, d0 := rebuiltC.Value(), reusedC.Value(), docsC.Value()
		words, keys := s.words(), s.keys
		w0, k0 := words.Len(), keys.Len()
		kept := map[*entityDoc]bool{}
		for _, v := range s.views {
			kept[v.doc] = true
		}
		if _, err := s.Publish(ctx); err != nil {
			t.Fatal(err)
		}
		rebuilt, docs = rebuiltC.Value()-r0, docsC.Value()-d0
		if s.words() != words || s.keys != keys {
			t.Fatal("the publish started fresh dictionaries")
		}
		rebuiltWords, rebuiltKeys := map[uint32]bool{}, map[uint32]bool{}
		for _, v := range s.views {
			if !kept[v.doc] {
				for _, id := range v.doc.words {
					rebuiltWords[id] = true
				}
				for _, id := range v.doc.keys {
					rebuiltKeys[id] = true
				}
			}
		}
		for id := w0; id < words.Len(); id++ {
			if !rebuiltWords[uint32(id)] {
				t.Errorf("beside %d records: the publish interned word %d, which no rebuilt doc carries", singletons, id)
			}
		}
		for id := k0; id < keys.Len(); id++ {
			if !rebuiltKeys[uint32(id)] {
				t.Errorf("beside %d records: the publish interned value key %d, which no rebuilt doc carries", singletons, id)
			}
		}
		interned = words.Len() - w0 + keys.Len() - k0
		if total := int64(len(s.Clusters())); rebuilt != want || reusedC.Value()-u0 != total-want {
			t.Errorf("beside %d records: publish rebuilt %d views and reused %d, want %d and %d",
				singletons, rebuilt, reusedC.Value()-u0, want, total-want)
		}

		r0, u0, d0 = rebuiltC.Value(), reusedC.Value(), docsC.Value()
		w0, k0 = s.words().Len(), s.keys.Len()
		if _, err := s.Publish(ctx); err != nil {
			t.Fatal(err)
		}
		if r, d, u := rebuiltC.Value()-r0, docsC.Value()-d0, reusedC.Value()-u0; r != 0 || d != 0 || u != int64(len(s.Clusters())) {
			t.Errorf("beside %d records: a publish with no delta rebuilt %d views and %d docs and reused %d, want 0, 0 and all %d",
				singletons, r, d, u, len(s.Clusters()))
		}
		if s.words() != words || s.keys != keys || s.words().Len() != w0 || s.keys.Len() != k0 {
			t.Errorf("beside %d records: a publish with no delta interned %d words and %d value keys, want none",
				singletons, s.words().Len()-w0, s.keys.Len()-k0)
		}
		// Rebuild goes through the same views and leaves them current.
		if _, err := s.Rebuild(ctx); err != nil {
			t.Fatal(err)
		}
		for _, v := range s.views {
			if v.doc == nil {
				t.Fatal("a view without a doc after Rebuild")
			}
		}
		return rebuilt, docs, interned
	}
	rebuilt2k, docs2k, interned2k := measure(2000)
	rebuilt20k, docs20k, interned20k := measure(20000)
	t.Logf("publish after the same deltas: %d views and %d docs rebuilt and %d strings interned beside 2k records, %d, %d and %d beside 20k",
		rebuilt2k, docs2k, interned2k, rebuilt20k, docs20k, interned20k)
	if rebuilt2k != rebuilt20k || docs2k != docs20k || interned2k != interned20k {
		t.Errorf("rebuilt %d views and %d docs and interned %d strings beside 2k records, %d, %d and %d beside 20k: the cost follows the corpus",
			rebuilt2k, docs2k, interned2k, rebuilt20k, docs20k, interned20k)
	}

	d := streamTestWeb(21, 1000, 20)
	s := drainedStream(t, d)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := s.Publish(ctx); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm publish of %d records in %d entities: %.0f allocations", d.NumRecords(), len(s.Clusters()), allocs)
	if d.NumRecords() < 4000 || allocs > 50000 {
		t.Errorf("warm no-change publish of %d records allocates %.0f times, want under 50000 at 4000+ records", d.NumRecords(), allocs)
	}
}

// TestPublishStatsZeroAllocWhenDisabled extends the nil-handle guarantee
// (obs.TestNilHandlesZeroAlloc) to the publish breakdown: resolving and
// feeding the stream.publish.* timers and view counters by name costs no
// allocation when no registry is attached.
func TestPublishStatsZeroAllocWhenDisabled(t *testing.T) {
	st := publishStats{views: 1, fuse: 2, feedback: 3, snapshot: 4, reused: 5, rebuilt: 6, docs: 7}
	if allocs := testing.AllocsPerRun(1000, func() { st.report(nil) }); allocs != 0 {
		t.Errorf("reporting publish stats to a nil registry allocates %v times per publish, want 0", allocs)
	}
	reg := obs.NewRegistry()
	st.report(reg)
	if reg.Counter("stream.views_rebuilt").Value() != 6 || reg.Timer("stream.publish.fuse").Count() != 1 {
		t.Error("publish stats did not reach the registry")
	}
}

// renderAnswers renders what readers can get out of a snapshot: every
// entity in full and, on its title, Search and Resolve.
func renderAnswers(t *testing.T, snap *Snapshot) string {
	var b strings.Builder
	for _, listed := range snap.Entities() {
		e, ok := snap.Entity(listed.ID)
		if !ok {
			t.Errorf("Entity(%s) not found", listed.ID)
			continue
		}
		fmt.Fprintf(&b, "%s %q %v %v\n", e.ID, e.Title, e.Records, e.Sources)
		for _, a := range sortedKeys(e.Values) {
			fmt.Fprintf(&b, "  %s=%s conf=%.17g\n", a, e.Values[a].Key(), e.Confidence[a])
		}
		if e.Title == "" {
			continue
		}
		hits, err := snap.Search(e.Title, 5)
		if err != nil {
			t.Errorf("Search(%q): %v", e.Title, err)
		}
		resolved, err := snap.Resolve(data.NewRecord("__query__", "client").Set("title", data.String(e.Title)), 5)
		if err != nil {
			t.Errorf("Resolve(%q): %v", e.Title, err)
		}
		for _, h := range append(hits, resolved...) {
			fmt.Fprintf(&b, "  -> %s %.17g\n", h.Entity.ID, h.Score)
		}
	}
	return b.String()
}

// TestSnapshotsShareNoMutableState pins that a published snapshot is
// cut loose from the writer: while the stream applies deltas and
// publishes five more snapshots out of the same cached cluster views and
// dictionaries — interning new words and folding the word dictionary's
// top into a new base on the way — readers keep getting the first one's
// answers, bit for bit. Run under -race it also pins that nothing a
// snapshot holds is written again.
func TestSnapshotsShareNoMutableState(t *testing.T) {
	ctx := context.Background()
	d := streamTestWeb(45, 60, 8)
	fleet, totals, _ := churnFleet(d, 9)
	s, err := NewStream(StreamConfig{Workers: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	str, err := source.NewDeltaStreamer(ctx, fleet, source.StreamConfig{EpochSize: 2, Totals: totals})
	if err != nil {
		t.Fatal(err)
	}
	defer str.Close()
	metas := fleetMetas(fleet)
	var epochs []source.DeltaEpoch
	for ep := range str.C {
		epochs = append(epochs, ep)
	}
	if err := str.Err(); err != nil || len(epochs) < 10 {
		t.Fatalf("%d epochs, %v", len(epochs), err)
	}
	half := len(epochs) / 2
	for _, ep := range epochs[:half] {
		if err := s.ApplyDeltas(metas, ep); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := s.Publish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := renderAnswers(t, snap)
	words, n0 := s.words(), s.words().Len()

	const readers = 3
	var wg sync.WaitGroup
	started, done := make(chan struct{}, readers), make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; ; pass++ {
				if got := renderAnswers(t, snap); got != want {
					t.Errorf("snapshot answers changed under the writer:\n--- first\n%s--- now\n%s", want, got)
					return
				}
				if pass == 0 {
					started <- struct{}{}
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		<-started
	}
	step := (len(epochs) - half + 4) / 5
	for i := half; i < len(epochs); i += step {
		for _, ep := range epochs[i:min(i+step, len(epochs))] {
			if err := s.ApplyDeltas(metas, ep); err != nil {
				t.Error(err)
			}
		}
		if _, err := s.Publish(ctx); err != nil {
			t.Error(err)
		}
	}
	close(done)
	wg.Wait()
	if got := renderAnswers(t, snap); got != want {
		t.Error("snapshot answers changed after the later publishes")
	}
	if s.words() != words || s.words().Len() <= n0 || dictBase(s.words()) == dictBase(&snap.words.dict) {
		t.Errorf("the later publishes grew the word dictionary from %d to %d IDs without folding its top, want new words and a fold in the same dictionary",
			n0, s.words().Len())
	}
}

// TestStreamTokenIDsStable pins the stream's dictionaries over a churned
// drain: every word and value key keeps one ID in every snapshot that
// knows it, and the first snapshot answers bit for bit the same — with
// readers racing the writer — after later publishes fold the word
// dictionary's top into a new base and after the stream, once nothing
// holds most IDs, renumbers them into fresh dictionaries.
func TestStreamTokenIDsStable(t *testing.T) {
	ctx := context.Background()
	d := streamTestWeb(47, 80, 8)
	fleet, totals, _ := churnFleet(d, 11)
	s, err := NewStream(StreamConfig{Workers: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	str, err := source.NewDeltaStreamer(ctx, fleet, source.StreamConfig{EpochSize: 2, Totals: totals})
	if err != nil {
		t.Fatal(err)
	}
	defer str.Close()
	metas := fleetMetas(fleet)
	publish := func() *Snapshot {
		snap, err := s.Publish(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}

	words, keys := s.words(), s.keys
	wordIDs, keyIDs := map[string]uint32{}, map[string]uint32{}
	sameIDs := func(kind string, seen map[string]uint32, snapDict tokenize.Dict) {
		for w, id := range dictAll(&snapDict) {
			if old, ok := seen[w]; ok && old != id {
				t.Errorf("%s %q has ID %d, %d in an earlier snapshot", kind, w, id, old)
			}
			seen[w] = id
		}
	}
	var first *Snapshot
	var want string
	const readers = 2
	var wg sync.WaitGroup
	done := make(chan struct{})
	stop := sync.OnceFunc(func() { close(done); wg.Wait() })
	defer stop()
	publishes := 0
	for ep := range str.C {
		if err := s.ApplyDeltas(metas, ep); err != nil {
			t.Fatal(err)
		}
		if ep.Seq%2 != 1 {
			continue
		}
		snap := publish()
		publishes++
		sameIDs("word", wordIDs, snap.words.dict)
		sameIDs("value key", keyIDs, snap.values.dict)
		if first != nil {
			continue
		}
		first, want = snap, renderAnswers(t, snap)
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if got := renderAnswers(t, first); got != want {
						t.Errorf("snapshot answers changed under the writer:\n--- first\n%s--- now\n%s", want, got)
						return
					}
					select {
					case <-done:
						return
					default:
					}
				}
			}()
		}
	}
	if err := str.Err(); err != nil || publishes < 10 {
		t.Fatalf("%d publishes, %v", publishes, err)
	}
	if s.words() != words || s.keys != keys {
		t.Fatal("the drain started fresh dictionaries, want the same ones throughout")
	}
	if dictBase(s.words()) == dictBase(&first.words.dict) {
		t.Error("no publish after the first folded the word dictionary's top")
	}

	// Every record deleted, no entity carries any ID: the publish starts
	// fresh dictionaries, and the next one interns into them.
	var gone []source.Delta
	for _, r := range s.Dataset().Records() {
		gone = append(gone, source.Deletion(r.ID))
	}
	if err := s.ApplyDeltas(metas, source.DeltaEpoch{Seq: s.Epoch(), Deltas: gone}); err != nil {
		t.Fatal(err)
	}
	publish()
	if s.words() == words || s.keys == keys || s.words().Len() != 0 || s.keys.Len() != 0 {
		t.Fatal("a publish with no entity kept the dictionaries, want fresh ones")
	}
	back := source.UpsertLog(d.Records()[:40])
	if err := s.ApplyDeltas(metas, source.DeltaEpoch{Seq: s.Epoch(), Deltas: back}); err != nil {
		t.Fatal(err)
	}
	if snap := publish(); snap.Len() == 0 || s.words().Len() == 0 || len(dictAll(&snap.words.dict)) != s.words().Len() {
		t.Errorf("the publish after the reset indexed %d entities over %d words", snap.Len(), s.words().Len())
	}
	stop()
	if got := renderAnswers(t, first); got != want {
		t.Error("the first snapshot's answers changed after the fold and the reset")
	}
}

// TestStreamDictionaryBound drives title and value churn through a
// stream until its one dictionary growth bound has renumbered the word
// dictionary at least twice, with readers racing the renumbering on
// every snapshot published so far. Every published snapshot equals the
// from-scratch oracle; after every publish each dictionary holds at most
// 2·held + 1 IDs, where a word is held by a feature-index entry or by a
// doc of the snapshot just published and a value key by such a doc;
// and every string a published doc carries is still in the dictionary.
func TestStreamDictionaryBound(t *testing.T) {
	ctx := context.Background()
	s, err := NewStream(StreamConfig{Workers: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	metas := map[string]*data.Source{}
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("s%d", i)
		metas[id] = &data.Source{ID: id, Name: id}
	}
	// Four records per family; two at the same round share three of
	// their five title words and link, at different rounds they do not.
	// Every round spells an updated record's last two title words and
	// its colour afresh, so the old spellings go dead.
	const records = 40
	record := func(i, round int) *data.Record {
		fam := i / 4
		return data.NewRecord(fmt.Sprintf("r%02d", i), fmt.Sprintf("s%d", i%4)).
			Set("title", data.String(fmt.Sprintf("fam%d base%d v%dr%d x%dr%d", fam, fam, fam, round, i, round))).
			Set("color", data.String(fmt.Sprintf("c%dr%d", fam, round)))
	}

	type published struct {
		snap *Snapshot
		want string
	}
	var (
		mu   sync.Mutex
		seen []published
		wg   sync.WaitGroup
	)
	done := make(chan struct{})
	stop := sync.OnceFunc(func() { close(done); wg.Wait() })
	defer stop()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				all := slices.Clone(seen)
				mu.Unlock()
				for _, p := range all {
					if got := renderAnswers(t, p.snap); got != p.want {
						t.Errorf("a snapshot's answers changed under the writer:\n--- published\n%s--- now\n%s", p.want, got)
						return
					}
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}

	held := func(d *tokenize.Dict, ids func(*entityDoc) []uint32, frozen *tokenize.Dict, docs []*entityDoc, index bool) int {
		mark := make([]bool, d.Len())
		if index {
			s.index.MarkHeld(mark)
		}
		for _, doc := range docs {
			for _, id := range ids(doc) {
				w := frozen.Token(id)
				now, ok := d.ID(w)
				if !ok {
					t.Fatalf("%q, which a published doc carries, left the dictionary", w)
				}
				mark[now] = true
			}
		}
		return len(slices.DeleteFunc(mark, func(ok bool) bool { return !ok }))
	}
	renumbered := 0
	for round := 0; renumbered < 2; round++ {
		if round == 60 {
			t.Fatalf("%d rounds renumbered the word dictionary %d times, want 2", round, renumbered)
		}
		var deltas []source.Delta
		for i := 0; i < records; i++ {
			switch {
			case round > 0 && (i+round)%7 == 0:
				deltas = append(deltas, source.Deletion(fmt.Sprintf("r%02d", i)))
			case round == 0 || (i+round)%2 == 0:
				deltas = append(deltas, source.Upsert(record(i, round)))
			}
		}
		if err := s.ApplyDeltas(metas, source.DeltaEpoch{Seq: s.Epoch(), Deltas: deltas}); err != nil {
			t.Fatal(err)
		}
		words := s.words()
		want, _ := oracleView(t, s, s.Accuracy())
		snap, err := s.Publish(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameSnapshot(snap, want); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if s.words() != words {
			renumbered++
		}
		hw := held(s.words(), func(d *entityDoc) []uint32 { return d.words }, &snap.words.dict, snap.docs, true)
		hk := held(s.keys, func(d *entityDoc) []uint32 { return d.keys }, &snap.values.dict, snap.docs, false)
		if n := s.words().Len(); n > 2*hw+1 {
			t.Fatalf("round %d: the word dictionary holds %d IDs for %d held", round, n, hw)
		}
		if n := s.keys.Len(); n > 2*hk+1 {
			t.Fatalf("round %d: the value-key dictionary holds %d IDs for %d held", round, n, hk)
		}
		mu.Lock()
		seen = append(seen, published{snap, renderAnswers(t, snap)})
		mu.Unlock()
	}
	stop()
}
