package linkage

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/similarity"
)

func linkageSample() *data.Dataset {
	d := data.NewDataset()
	_ = d.AddSource(&data.Source{ID: "s1"})
	_ = d.AddSource(&data.Source{ID: "s2"})
	recs := []*data.Record{
		data.NewRecord("a", "s1").Set("title", data.String("acme rocket skate 300")).Set("pid", data.String("AR-300")),
		data.NewRecord("b", "s2").Set("title", data.String("acme rocket skate 300 deluxe")).Set("pid", data.String("AR-300")),
		data.NewRecord("c", "s1").Set("title", data.String("zenix photon blender")).Set("pid", data.String("ZP-9")),
		data.NewRecord("d", "s2").Set("title", data.String("acme rocket skate 500")).Set("pid", data.String("AR-500")),
	}
	for _, r := range recs {
		_ = d.AddRecord(r)
	}
	return d
}

func TestThresholdMatcher(t *testing.T) {
	d := linkageSample()
	m := ThresholdMatcher{
		Comparator: similarity.UniformComparator(similarity.Jaccard, "title"),
		Threshold:  0.6,
	}
	if _, ok := m.Match(d.Record("a"), d.Record("b")); !ok {
		t.Error("near-duplicate titles must match at 0.6")
	}
	if _, ok := m.Match(d.Record("a"), d.Record("c")); ok {
		t.Error("unrelated titles must not match")
	}
}

func TestRuleMatcherIdentifierWins(t *testing.T) {
	d := linkageSample()
	m := RuleMatcher{Exact: []string{"pid"}}
	if s, ok := m.Match(d.Record("a"), d.Record("b")); !ok || s != 1 {
		t.Error("identifier equality must force a match with score 1")
	}
	if _, ok := m.Match(d.Record("a"), d.Record("d")); ok {
		t.Error("different identifiers with no comparator must not match")
	}
	// Identifier equality is checked on normalised keys but distinct
	// kinds never collide.
	x := data.NewRecord("x", "s1").Set("pid", data.Number(12))
	y := data.NewRecord("y", "s1").Set("pid", data.String("12"))
	if _, ok := m.Match(x, y); ok {
		t.Error("number 12 and string \"12\" must not be identifier-equal")
	}
}

func TestRuleMatcherFallsBackToComparator(t *testing.T) {
	d := linkageSample()
	m := RuleMatcher{
		Exact:      []string{"nonexistent"},
		Comparator: similarity.UniformComparator(similarity.Jaccard, "title"),
		Threshold:  0.6,
	}
	if _, ok := m.Match(d.Record("a"), d.Record("b")); !ok {
		t.Error("comparator fallback must fire")
	}
}

// matchAll runs the unbudgeted matching door over a pair slice.
func matchAll(t testing.TB, d *data.Dataset, cands []data.Pair, m Matcher, workers int) []data.ScoredPair {
	t.Helper()
	out, err := MatchStreamCtx(context.Background(), d, PairSlice(cands), m, workers, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestMatchSkipsUnknownRecords(t *testing.T) {
	d := linkageSample()
	m := RuleMatcher{Exact: []string{"pid"}}
	out := matchAll(t, d, []data.Pair{data.NewPair("a", "ghost")}, m, 2)
	if len(out) != 0 {
		t.Errorf("unknown record must be skipped, got %v", out)
	}
}

// End-to-end sanity on generated data: identifier-based rule matching on
// a clean web recovers the ground-truth clustering almost perfectly.
func TestRuleMatcherOnGeneratedWeb(t *testing.T) {
	w := datagen.NewWorld(datagen.WorldConfig{Seed: 21, NumEntities: 40})
	web := datagen.BuildWeb(w, datagen.SourceConfig{
		Seed: 22, NumSources: 10, DirtLevel: 1, IdentifierRate: 0.999,
	})
	d := web.Dataset
	var ids []string
	for _, r := range d.Records() {
		ids = append(ids, r.ID)
	}
	// Candidates: all pairs sharing a pid (identifier blocking).
	byPid := map[string][]string{}
	for _, r := range d.Records() {
		if v := r.Get("pid"); !v.IsNull() {
			byPid[v.Str] = append(byPid[v.Str], r.ID)
		}
	}
	var cands []data.Pair
	for _, members := range byPid {
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				cands = append(cands, data.NewPair(members[i], members[j]))
			}
		}
	}
	matched := matchAll(t, d, cands, RuleMatcher{Exact: []string{"pid"}}, 4)
	clusters := ConnectedComponents{}.Cluster(ids, matched)
	truth := d.GroundTruthClusters()
	// Pairwise precision must be perfect (identifiers are unique);
	// recall high (identifier coverage ~1).
	pr := clusterPRF(clusters, truth)
	if pr.p < 0.999 {
		t.Errorf("identifier linkage precision = %f", pr.p)
	}
	if pr.r < 0.95 {
		t.Errorf("identifier linkage recall = %f", pr.r)
	}
}

type prf struct{ p, r float64 }

func clusterPRF(pred, truth data.Clustering) prf {
	ps := map[data.Pair]bool{}
	for _, p := range pred.Pairs() {
		ps[p] = true
	}
	ts := map[data.Pair]bool{}
	for _, p := range truth.Pairs() {
		ts[p] = true
	}
	tp := 0
	for p := range ps {
		if ts[p] {
			tp++
		}
	}
	out := prf{}
	if len(ps) > 0 {
		out.p = float64(tp) / float64(len(ps))
	}
	if len(ts) > 0 {
		out.r = float64(tp) / float64(len(ts))
	}
	return out
}

func TestMatchEmptyCandidates(t *testing.T) {
	d := linkageSample()
	if got := matchAll(t, d, nil, RuleMatcher{Exact: []string{"pid"}}, 3); len(got) != 0 {
		t.Errorf("empty candidates = %v", got)
	}
}

func BenchmarkMatchPairs(b *testing.B) {
	w := datagen.NewWorld(datagen.WorldConfig{Seed: 1, NumEntities: 100})
	web := datagen.BuildWeb(w, datagen.SourceConfig{Seed: 2, NumSources: 20, DirtLevel: 1})
	d := web.Dataset
	recs := d.Records()
	var cands []data.Pair
	for i := 0; i < len(recs) && i < 300; i++ {
		for j := i + 1; j < len(recs) && j < i+10; j++ {
			cands = append(cands, data.NewPair(recs[i].ID, recs[j].ID))
		}
	}
	m := ThresholdMatcher{
		Comparator: similarity.UniformComparator(similarity.Jaccard, "title"),
		Threshold:  0.5,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matchAll(b, d, cands, m, 4)
	}
	_ = fmt.Sprint(len(cands))
}

// TestIdentifierHitSameKey pins the identifier short-circuit's
// allocation-free equality, Value.SameKey, to the Key equality it
// replaced, on every pair of a table of identifier spellings: strings,
// 0 and -0, NaN (which data.Number turns into a null, so it is also
// spelt as a raw number value), one instant in two zones, bools and
// mixed kinds. A null never hits.
func TestIdentifierHitSameKey(t *testing.T) {
	instant := time.Date(2021, 6, 1, 9, 30, 0, 0, time.UTC)
	values := []data.Value{
		data.String("AR-300"), data.String("AR-300"), data.String("ar-300"), data.String(""), data.String("12"),
		data.Number(0), data.Number(math.Copysign(0, -1)), data.Number(math.NaN()),
		{Kind: data.KindNumber, Num: math.NaN()}, {Kind: data.KindNumber, Num: -math.NaN()},
		data.Number(12), data.Number(12.5),
		data.Time(instant), data.Time(instant.In(time.FixedZone("east", 2*3600))), data.Time(instant.Add(time.Hour)),
		data.Bool(true), data.Bool(false), data.Bool(true),
	}
	for i, a := range values {
		for j, b := range values {
			if got, want := a.SameKey(b), a.Key() == b.Key(); got != want {
				t.Errorf("values %d (%s) and %d (%s): SameKey %v, Key equality %v", i, a.Key(), j, b.Key(), got, want)
			}
			ra := data.NewRecord("a", "").Set("pid", a)
			rb := data.NewRecord("b", "").Set("pid", b)
			want := !a.IsNull() && !b.IsNull() && a.Key() == b.Key()
			if got := identifierHit([]string{"pid"}, ra, rb); got != want {
				t.Errorf("values %d (%s) and %d (%s): identifierHit %v, Key equality %v", i, a.Key(), j, b.Key(), got, want)
			}
		}
	}
}
