package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/similarity"
	"repro/internal/tokenize"
)

// raceEnabled reports a -race build, where sync.Pool drops a share of
// what it is handed and allocation counts of pooled paths vary.
var raceEnabled bool

// legacySearch is the pre-snapshot reference implementation: it
// re-materialises every entity and re-tokenises its text per query,
// exactly as Report.Search did before the serving snapshot. The
// snapshot path must reproduce its hits bit-for-bit.
func legacySearch(t *testing.T, rep *Report, query string, limit int) []Hit {
	t.Helper()
	ents, err := rep.Entities()
	if err != nil {
		t.Fatal(err)
	}
	if limit <= 0 {
		limit = 10
	}
	hits := make([]Hit, 0, len(ents))
	for _, e := range ents {
		text := e.Title
		for _, attr := range sortedKeys(e.Values) {
			if v := e.Values[attr]; v.Kind == data.KindString {
				text += " " + v.Str
			}
		}
		s := 0.7*similarity.Overlap(query, text) + 0.3*similarity.Jaccard(query, text)
		if s > 0 {
			hits = append(hits, Hit{Entity: e, Score: s})
		}
	}
	sortHits := func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].Entity.ID < hits[j].Entity.ID
	}
	for i := range hits {
		for j := i + 1; j < len(hits); j++ {
			if sortHits(j, i) {
				hits[i], hits[j] = hits[j], hits[i]
			}
		}
	}
	if len(hits) > limit {
		hits = hits[:limit]
	}
	return hits
}

func testReport(t *testing.T) *Report {
	t.Helper()
	web := testWeb(t, 1, 0.9)
	rep, err := New(Config{}).Run(web.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestSnapshotSearchMatchesLegacy(t *testing.T) {
	rep := testReport(t)
	ents, err := rep.Entities()
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{"camera", "nova", "pro 4", "zzz nothing"}
	// Every entity title is a query too: the owner must surface.
	for i, e := range ents {
		if i%5 == 0 && e.Title != "" {
			queries = append(queries, e.Title)
		}
	}
	for _, q := range queries {
		for _, limit := range []int{1, 3, 10, 1000} {
			want := legacySearch(t, rep, q, limit)
			got, err := rep.Search(q, limit)
			if err != nil {
				t.Fatalf("Search(%q, %d): %v", q, limit, err)
			}
			if len(got) != len(want) {
				t.Fatalf("Search(%q, %d): %d hits, legacy %d", q, limit, len(got), len(want))
			}
			for i := range got {
				if got[i].Entity.ID != want[i].Entity.ID || got[i].Score != want[i].Score {
					t.Fatalf("Search(%q, %d) hit %d: got (%s, %v), legacy (%s, %v)",
						q, limit, i, got[i].Entity.ID, got[i].Score, want[i].Entity.ID, want[i].Score)
				}
			}
		}
	}
}

// TestEntitiesMemoized pins the tentpole bugfix: repeated Entities and
// Search calls share one materialisation instead of rebuilding every
// entity per call.
func TestEntitiesMemoized(t *testing.T) {
	rep := testReport(t)
	a, err := rep.Entities()
	if err != nil {
		t.Fatal(err)
	}
	b, err := rep.Entities()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || &a[0] != &b[0] {
		t.Fatal("Entities() re-materialised: backing arrays differ")
	}
	hits, err := rep.Search(a[0].Title, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hits {
		if h.Entity != a[int(mustEntityIndex(t, h.Entity.ID))] {
			t.Fatalf("Search returned a re-materialised entity %s", h.Entity.ID)
		}
	}
	// The warm path allocates no entities at all: returning the cached
	// slice is allocation-free.
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := rep.Entities(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("warm Entities() allocates %v objects per call, want 0", allocs)
	}
}

func mustEntityIndex(t *testing.T, id string) int {
	t.Helper()
	i := entityIndex(id)
	if i < 0 {
		t.Fatalf("bad entity ID %q", id)
	}
	return i
}

func TestSearchLimitValidation(t *testing.T) {
	rep := testReport(t)
	if _, err := rep.Search("camera", -1); err == nil {
		t.Error("negative limit must be a validation error")
	}
	hits, err := rep.Search("camera", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) > DefaultSearchLimit {
		t.Errorf("limit 0 returned %d hits, want <= default %d", len(hits), DefaultSearchLimit)
	}
}

func TestEntityIndexStrict(t *testing.T) {
	cases := []struct {
		in   string
		want int
	}{
		{"e0", 0},
		{"e1", 1},
		{"e12", 12},
		{"e9073", 9073},
		{"", -1},
		{"e", -1},
		{"x1", -1},
		{"e1x", -1},
		{"e-1", -1},
		{"1", -1},
		// Leading zeros would alias other entities ("e01" vs "e1").
		{"e01", -1},
		{"e00", -1},
		{"e0123", -1},
		// Overflowing digit strings must not wrap into valid indexes.
		{"e9223372036854775807", 9223372036854775807},
		{"e9223372036854775808", -1},
		{"e92233720368547758070", -1},
		{"e99999999999999999999999999", -1},
	}
	for _, c := range cases {
		if got := entityIndex(c.in); got != c.want {
			t.Errorf("entityIndex(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestSnapshotEntityLookup(t *testing.T) {
	rep := testReport(t)
	snap, err := rep.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Len() == 0 {
		t.Fatal("empty snapshot")
	}
	e, ok := snap.Entity("e0")
	if !ok || e.ID != "e0" {
		t.Fatalf("Entity(e0) = %v, %v", e, ok)
	}
	for _, id := range []string{"e01", "nope", fmt.Sprintf("e%d", snap.Len()), ""} {
		if _, ok := snap.Entity(id); ok {
			t.Errorf("Entity(%q) unexpectedly found", id)
		}
	}
}

func TestSnapshotSimilar(t *testing.T) {
	rep := testReport(t)
	snap, err := rep.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	hits, err := snap.Similar("e0", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) > 5 {
		t.Fatalf("k violated: %d hits", len(hits))
	}
	for _, h := range hits {
		if h.Entity.ID == "e0" {
			t.Error("Similar returned the entity itself")
		}
		if h.Score <= 0 {
			t.Errorf("non-positive similarity %v for %s", h.Score, h.Entity.ID)
		}
	}
	if _, err := snap.Similar("zzz", 5); err == nil {
		t.Error("unknown ID must error")
	}
	if _, err := snap.Similar("e0", -2); err == nil {
		t.Error("negative k must be a validation error")
	}
}

func TestSnapshotResolve(t *testing.T) {
	rep := testReport(t)
	snap, err := rep.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// A record copying an existing entity's title must resolve to it
	// (or at worst rank it in the top 3 among perturbed duplicates).
	var target *Entity
	for _, e := range snap.Entities() {
		if len(e.Records) > 1 && e.Title != "" {
			target = e
			break
		}
	}
	if target == nil {
		t.Skip("no multi-record entity in sample")
	}
	rec := data.NewRecord("q1", "client").Set("title", data.String(target.Title))
	hits, err := snap.Resolve(rec, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("no resolution candidates")
	}
	found := false
	for _, h := range hits {
		if h.Entity.ID == target.ID {
			found = true
		}
	}
	if !found {
		t.Errorf("target %s not in top candidates for its own title %q", target.ID, target.Title)
	}
	// Validation.
	if _, err := snap.Resolve(nil, 3); err == nil {
		t.Error("nil record must error")
	}
	if _, err := snap.Resolve(data.NewRecord("q2", "client"), 3); err == nil {
		t.Error("empty record must error")
	}
	if _, err := snap.Resolve(rec, -1); err == nil {
		t.Error("negative k must be a validation error")
	}
}

// TestSnapshotResolveExactValue pins the exact value-key probe: a
// record sharing only a non-text fused value with an entity still
// surfaces that entity as a candidate.
func TestSnapshotResolveExactValue(t *testing.T) {
	rep := testReport(t)
	snap, err := rep.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var attr string
	var val data.Value
	var target *Entity
	for _, e := range snap.Entities() {
		for _, a := range sortedKeys(e.Values) {
			if v := e.Values[a]; v.Kind == data.KindNumber {
				attr, val, target = a, v, e
				break
			}
		}
		if target != nil {
			break
		}
	}
	if target == nil {
		t.Skip("no numeric fused value in sample")
	}
	rec := data.NewRecord("q1", "client").Set(attr, val)
	hits, err := snap.Resolve(rec, snap.Len())
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hits {
		if h.Entity.ID == target.ID {
			return
		}
	}
	t.Errorf("entity %s with exact %s=%s not in resolve candidates", target.ID, attr, val)
}

func benchWeb() *datagen.Web {
	w := datagen.NewWorld(datagen.WorldConfig{Seed: 71, NumEntities: 40})
	return datagen.BuildWeb(w, datagen.SourceConfig{
		Seed: 72, NumSources: 10, DirtLevel: 1,
		IdentifierRate: 0.9, Heterogeneity: 0.6,
		HeadFraction: 0.4, TailCoverage: 0.3,
	})
}

// BenchmarkSearchWarm times the three ranked reads on a warm snapshot:
// search and resolve by an entity's title, similar by its ID.
func BenchmarkSearchWarm(b *testing.B) {
	web := benchWeb()
	rep, err := New(Config{}).Run(web.Dataset)
	if err != nil {
		b.Fatal(err)
	}
	snap, err := rep.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	target := snap.Entities()[0]
	rec := data.NewRecord("q", "client").Set("title", data.String(target.Title))
	for _, bc := range []struct {
		name string
		read func() ([]Hit, error)
	}{
		{"search", func() ([]Hit, error) { return rep.Search("camera pro", 10) }},
		{"similar", func() ([]Hit, error) { return snap.Similar(target.ID, 10) }},
		{"resolve", func() ([]Hit, error) { return snap.Resolve(rec, 10) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			if _, err := bc.read(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := bc.read(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSnapshotResolve times Resolve on a drained stream's snapshot
// of 1,000 entities, cycling through 64 of them as queries: title, the
// entity's title alone; record, its title with every fused value.
func BenchmarkSnapshotResolve(b *testing.B) {
	snap, err := drainedStream(b, streamTestWeb(21, 1000, 20)).Rebuild(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	var titles, records []*data.Record
	for i := 0; len(titles) < 64; i += 7 {
		e := snap.Entities()[i%snap.Len()]
		title := data.NewRecord("q", "client").Set("title", data.String(e.Title))
		rec := title.Clone()
		for a, v := range e.Values {
			rec.Set(a, v)
		}
		titles, records = append(titles, title), append(records, rec)
	}
	for _, bc := range []struct {
		name string
		recs []*data.Record
	}{{"title", titles}, {"record", records}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := snap.Resolve(bc.recs[i%len(bc.recs)], 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSearchColdRebuild is the pre-snapshot behaviour for
// comparison: a fresh report per iteration pays the full
// materialisation every query.
func BenchmarkSearchColdRebuild(b *testing.B) {
	web := benchWeb()
	rep, err := New(Config{}).Run(web.Dataset)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh := &Report{
			Clusters:   rep.Clusters,
			Normalized: rep.Normalized,
			Fusion:     rep.Fusion,
			Schema:     rep.Schema,
		}
		if _, err := fresh.Search("camera pro", 10); err != nil {
			b.Fatal(err)
		}
	}
}

// renderReads answers every case and renders the answers as text, failing
// the test if a pooled scratch is handed back dirty: any non-zero count,
// a touched entity left over or counts sized for another snapshot.
func renderReads(t *testing.T, snap *Snapshot, cases []queryCase) string {
	var b strings.Builder
	for _, c := range cases {
		hits, err := c.run()
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			return ""
		}
		fmt.Fprintf(&b, "%s:", c.name)
		for _, h := range hits {
			fmt.Fprintf(&b, " %s %x", h.Entity.ID, math.Float64bits(h.Score))
		}
		b.WriteByte('\n')
		if sc, ok := snap.scratch.Get().(*queryScratch); ok {
			if err := scratchClean(snap, sc); err != nil {
				t.Errorf("after %s: %v", c.name, err)
			}
			snap.scratch.Put(sc)
		}
	}
	return b.String()
}

func scratchClean(snap *Snapshot, sc *queryScratch) error {
	if len(sc.counts) != snap.Len() {
		return fmt.Errorf("pooled counts sized %d for a snapshot of %d", len(sc.counts), snap.Len())
	}
	if len(sc.touched) != 0 {
		return fmt.Errorf("pooled scratch still lists %d touched entities", len(sc.touched))
	}
	for e, n := range sc.counts {
		if n != 0 {
			return fmt.Errorf("pooled count of entity %d is %d", e, n)
		}
	}
	return nil
}

// TestQueryScratchIsolated hammers two snapshots of different sizes from
// several goroutines at once: every answer must equal the serial one,
// and every scratch in either pool must be clean after every call. Run
// under -race it also pins that no two queries share a scratch.
func TestQueryScratchIsolated(t *testing.T) {
	big, err := testReport(t).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	small := tieSnapshot(23)
	if big.Len() == small.Len() {
		t.Fatalf("both snapshots hold %d entities; the test needs two sizes", big.Len())
	}
	bigCases, smallCases := reportKernelCases(t, big), tieKernelCases(t, small)
	wantBig, wantSmall := renderReads(t, big, bigCases), renderReads(t, small, smallCases)
	var wg sync.WaitGroup
	for r := 0; r < 6; r++ {
		snap, cases, want := big, bigCases, wantBig
		if r%2 == 1 {
			snap, cases, want = small, smallCases, wantSmall
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 3; pass++ {
				if got := renderReads(t, snap, cases); got != want {
					t.Errorf("concurrent answers on the %d-entity snapshot differ from the serial ones", snap.Len())
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestQueryAllocsFlat pins that a warm query's allocations do not grow
// with the entities it touches: Search costs the same for a word one
// entity carries as for words most entities carry, Similar the same for
// an entity with few neighbours as for one with many, Resolve the same
// for a record with one candidate as for one with most entities, and the probe
// itself allocates nothing.
func TestQueryAllocsFlat(t *testing.T) {
	snap, err := testReport(t).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// The rarest and the most frequent words of the index.
	words := dictAll(&snap.words.dict)
	byFreq := make([]string, 0, len(words))
	for w := range words {
		byFreq = append(byFreq, w)
	}
	postings := func(w string) int { return len(snap.words.lookup(w)) }
	sort.Slice(byFreq, func(i, j int) bool {
		if pi, pj := postings(byFreq[i]), postings(byFreq[j]); pi != pj {
			return pi < pj
		}
		return byFreq[i] < byFreq[j]
	})
	rare, common := byFreq[0], strings.Join(byFreq[len(byFreq)-3:], " ")
	if postings(rare) != 1 {
		t.Fatalf("rarest word %q is carried by %d entities, want 1", rare, postings(rare))
	}
	sc := snap.getScratch()
	nq := snap.queryTokens(sc, tokenize.Words(common))
	toks := append([]uint32(nil), sc.toks...)
	snap.probe(sc, toks, nq, -1, 10)
	touched := map[int32]bool{}
	for _, tok := range toks {
		for _, e := range snap.words.postings[tok] {
			touched[e] = true
		}
	}
	if 2*len(touched) <= snap.Len() {
		t.Fatalf("%q touches %d of %d entities, want most", common, len(touched), snap.Len())
	}
	if allocs := testing.AllocsPerRun(100, func() { snap.probe(sc, toks, nq, -1, 10) }); allocs != 0 {
		t.Errorf("warm probe allocates %v objects per call, want 0", allocs)
	}
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop scratch at random")
	}
	allocs := func(read func() ([]Hit, error)) float64 {
		return testing.AllocsPerRun(100, func() {
			if _, err := read(); err != nil {
				t.Fatal(err)
			}
		})
	}
	one := allocs(func() ([]Hit, error) { return snap.Search(rare, 10) })
	most := allocs(func() ([]Hit, error) { return snap.Search(common, 10) })
	if one != most {
		t.Errorf("Search allocates %v objects for a one-hit query, %v for %q", one, most, common)
	}
	// Similar on the entities with the fewest and the most tokens.
	lo, hi := 0, 0
	for i, toks := range snap.entTokens {
		if len(toks) < len(snap.entTokens[lo]) {
			lo = i
		}
		if len(toks) > len(snap.entTokens[hi]) {
			hi = i
		}
	}
	few := allocs(func() ([]Hit, error) { return snap.Similar(snap.entities[lo].ID, 10) })
	many := allocs(func() ([]Hit, error) { return snap.Similar(snap.entities[hi].ID, 10) })
	if few != many || many > 1 {
		t.Errorf("Similar allocates %v objects for %s, %v for %s; want the same, at most the hit slice",
			few, snap.entities[lo].ID, many, snap.entities[hi].ID)
	}
	// Resolve on two records of one shape: the rarest word has one
	// candidate, the most frequent words most entities.
	for _, c := range []struct {
		word string
		want func(int) bool
	}{{rare, func(n int) bool { return n == 1 }}, {common, func(n int) bool { return 2*n > snap.Len() }}} {
		if n := len(referenceResolve(snap, data.NewRecord("q", "client").Set("title", data.String(c.word)), 1000)); !c.want(n) {
			t.Fatalf("Resolve(title %q) scores %d candidates", c.word, n)
		}
	}
	resolve := func(word string) float64 {
		rec := data.NewRecord("q", "client").Set("title", data.String(word)).Set("brand", data.String("acme"))
		return allocs(func() ([]Hit, error) { return snap.Resolve(rec, 10) })
	}
	if one, most := resolve(rare), resolve(common); one != most {
		t.Errorf("Resolve allocates %v objects for one candidate, %v for %q", one, most, common)
	}
}
