package core

import (
	"fmt"
	"testing"

	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/similarity"
)

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

func BenchmarkSearchWarm(b *testing.B) {
	web := benchWeb()
	rep, err := New(Config{}).Run(web.Dataset)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := rep.Search("camera pro", 10); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rep.Search("camera pro", 10); err != nil {
			b.Fatal(err)
		}
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
