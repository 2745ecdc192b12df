package datagen

import (
	"math/rand"
	"testing"

	"repro/internal/data"
)

func TestNewWorldDeterministic(t *testing.T) {
	cfg := WorldConfig{Seed: 42, NumEntities: 30}
	w1, w2 := NewWorld(cfg), NewWorld(cfg)
	if len(w1.Entities) != 30 || len(w2.Entities) != 30 {
		t.Fatalf("entity counts: %d, %d", len(w1.Entities), len(w2.Entities))
	}
	for i := range w1.Entities {
		a, b := w1.Entities[i], w2.Entities[i]
		if a.Name != b.Name || a.Identifier != b.Identifier {
			t.Fatalf("entity %d differs across identical seeds: %q vs %q", i, a.Name, b.Name)
		}
		for attr, v := range a.Values {
			if !b.Values[attr].Equal(v) {
				t.Fatalf("entity %d value %s differs", i, attr)
			}
		}
	}
}

func TestWorldStructure(t *testing.T) {
	w := NewWorld(WorldConfig{Seed: 1, NumEntities: 60, AttrsPerCat: 5})
	if len(w.Categories) != 3 {
		t.Fatalf("default categories = %v", w.Categories)
	}
	for _, cat := range w.Categories {
		if got := len(w.Attrs[cat]); got != 5 {
			t.Errorf("category %s has %d attrs, want 5", cat, got)
		}
		if len(w.EntitiesByCategory(cat)) == 0 {
			t.Errorf("category %s has no entities", cat)
		}
	}
	for _, e := range w.Entities {
		if e.Name == "" || e.Identifier == "" {
			t.Fatalf("entity %s missing name or identifier", e.ID)
		}
		if len(e.Values) != 5 {
			t.Fatalf("entity %s has %d values, want 5", e.ID, len(e.Values))
		}
	}
	// Popularity is non-increasing per category rank.
	ents := w.EntitiesByCategory("camera")
	for i := 1; i < len(ents); i++ {
		if ents[i].Popularity > ents[i-1].Popularity+1e-12 {
			t.Fatal("popularity must be non-increasing within category")
		}
	}
}

func TestBuildWebDeterministic(t *testing.T) {
	w := NewWorld(WorldConfig{Seed: 7, NumEntities: 40})
	cfg := SourceConfig{Seed: 11, NumSources: 10, DirtLevel: 2, CopierFraction: 0.3}
	d1 := BuildWeb(w, cfg).Dataset
	d2 := BuildWeb(w, cfg).Dataset
	if d1.NumRecords() != d2.NumRecords() {
		t.Fatalf("record counts differ: %d vs %d", d1.NumRecords(), d2.NumRecords())
	}
	r1, r2 := d1.Records(), d2.Records()
	for i := range r1 {
		if r1[i].String() != r2[i].String() {
			t.Fatalf("record %d differs:\n%s\n%s", i, r1[i], r2[i])
		}
	}
}

func TestBuildWebShape(t *testing.T) {
	w := NewWorld(WorldConfig{Seed: 3, NumEntities: 50})
	web := BuildWeb(w, SourceConfig{Seed: 5, NumSources: 15, CopierFraction: 0.2})
	d := web.Dataset
	if d.NumSources() != 15 {
		t.Fatalf("sources = %d", d.NumSources())
	}
	if d.NumRecords() == 0 {
		t.Fatal("no records emitted")
	}
	// Head sources must publish more than tail sources on average.
	var headSum, headN, tailSum, tailN float64
	for _, gs := range web.Sources {
		n := float64(len(d.SourceRecords(gs.ID)))
		if gs.Head {
			headSum += n
			headN++
		} else {
			tailSum += n
			tailN++
		}
	}
	if headN == 0 || tailN == 0 {
		t.Fatal("want both head and tail sources")
	}
	if headSum/headN <= tailSum/tailN {
		t.Errorf("head avg %.1f must exceed tail avg %.1f", headSum/headN, tailSum/tailN)
	}
	// Every record has a title and ground-truth entity.
	for _, r := range d.Records() {
		if !r.Has("title") {
			t.Fatalf("record %s lacks title", r.ID)
		}
		if r.EntityID == "" {
			t.Fatalf("record %s lacks ground truth", r.ID)
		}
	}
	// Copier ground truth recorded on sources.
	copiers := 0
	for _, s := range d.Sources() {
		copiers += len(s.CopiesFrom)
	}
	if copiers != 3 {
		t.Errorf("want 3 copier edges, got %d", copiers)
	}
}

func TestDirtPerturbation(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	heavy := DirtLevel(3)
	changed := 0
	for i := 0; i < 200; i++ {
		if heavy.PerturbString(r, "acme camera pro 300") != "acme camera pro 300" {
			changed++
		}
	}
	if changed < 100 {
		t.Errorf("heavy dirt changed only %d/200 strings", changed)
	}
	clean := DirtLevel(0)
	for i := 0; i < 50; i++ {
		if got := clean.PerturbString(r, "acme camera pro 300"); got != "acme camera pro 300" {
			t.Fatalf("clean dirt must not perturb, got %q", got)
		}
	}
}

func TestSchemaDialect(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	attrs := []string{"camera_brand", "camera_weight_g", "camera_price_usd"}
	seenRename, seenScale := false, false
	for i := 0; i < 50; i++ {
		d := NewSchemaDialect(r, attrs, 1.0)
		name, _ := d.Apply("camera_brand", data.String("acme"))
		if name != "camera_brand" {
			seenRename = true
		}
		_, v := d.Apply("camera_weight_g", data.Number(1000))
		if v.Num != 1000 {
			seenScale = true
		}
	}
	if !seenRename || !seenScale {
		t.Errorf("full heterogeneity must rename (%v) and rescale (%v)", seenRename, seenScale)
	}
	d0 := NewSchemaDialect(r, attrs, 0)
	for _, a := range attrs {
		if name, v := d0.Apply(a, data.Number(5)); name != a || v.Num != 5 {
			t.Errorf("zero heterogeneity must be identity, got %s %v", name, v)
		}
	}
}

func TestWrongValueForIsDistinct(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	truth := data.String("x")
	domain := []data.Value{data.String("x"), data.String("y"), data.String("z")}
	for i := 0; i < 100; i++ {
		if wrongValueFor(r, truth, domain).Equal(truth) {
			t.Fatal("wrong value equals truth")
		}
	}
	// Degenerate domain still yields a distinct value.
	if wrongValueFor(r, data.Number(5), []data.Value{data.Number(5)}).Equal(data.Number(5)) {
		t.Fatal("degenerate domain must fabricate a distinct value")
	}
	if wrongValueFor(r, data.Bool(true), nil).Bool {
		t.Fatal("bool wrong value must flip")
	}
}

func TestBuildClaims(t *testing.T) {
	cw := BuildClaims(ClaimConfig{Seed: 9, NumItems: 50, NumSources: 8, NumCopiers: 4})
	if cw.Claims.Len() == 0 {
		t.Fatal("no claims")
	}
	if len(cw.CopiesFrom) != 4 {
		t.Fatalf("copier edges = %d", len(cw.CopiesFrom))
	}
	if got := len(cw.Claims.Sources()); got != 12 {
		t.Fatalf("claiming sources = %d, want 12", got)
	}
	for _, it := range cw.Items {
		if _, ok := cw.Claims.Truth(it); !ok {
			t.Fatalf("item %v lacks truth", it)
		}
	}
	if err := cw.Claims.Validate(); err != nil {
		t.Fatal(err)
	}
	// Accuracy sanity: a source's empirical accuracy tracks its true
	// accuracy within a loose tolerance.
	for src, acc := range cw.TrueAccuracy {
		if cw.CopiesFrom[src] != "" {
			continue
		}
		claims := cw.Claims.SourceClaims(src)
		if len(claims) < 20 {
			continue
		}
		correct := 0
		for _, c := range claims {
			truth, _ := cw.Claims.Truth(c.Item)
			if c.Value.Equal(truth) {
				correct++
			}
		}
		emp := float64(correct) / float64(len(claims))
		if emp < acc-0.25 || emp > acc+0.25 {
			t.Errorf("source %s empirical accuracy %.2f far from true %.2f", src, emp, acc)
		}
	}
}

func TestCopiersShareErrors(t *testing.T) {
	cw := BuildClaims(ClaimConfig{Seed: 4, NumItems: 200, NumSources: 5,
		NumCopiers: 5, CopyRate: 1.0, MinAccuracy: 0.6, MaxAccuracy: 0.7})
	for cop, target := range cw.CopiesFrom {
		agree, total := 0, 0
		targetClaims := map[data.Item]data.Value{}
		for _, c := range cw.Claims.SourceClaims(target) {
			targetClaims[c.Item] = c.Value
		}
		for _, c := range cw.Claims.SourceClaims(cop) {
			if tv, ok := targetClaims[c.Item]; ok {
				total++
				if c.Value.Equal(tv) {
					agree++
				}
			}
		}
		if total == 0 || float64(agree)/float64(total) < 0.95 {
			t.Errorf("copier %s agrees with target on %d/%d, want ~all", cop, agree, total)
		}
	}
}

func TestBuildTemporal(t *testing.T) {
	w := NewWorld(WorldConfig{Seed: 6, NumEntities: 30})
	tw := BuildTemporal(w, SourceConfig{Seed: 2, NumSources: 6}, TemporalConfig{Seed: 8, Epochs: 4, DriftRate: 0.8})
	if len(tw.Snapshots) != 4 {
		t.Fatalf("snapshots = %d", len(tw.Snapshots))
	}
	if len(tw.Evolving) == 0 {
		t.Fatal("no evolving entities")
	}
	union := tw.Union()
	if union.NumRecords() == 0 {
		t.Fatal("union empty")
	}
	// Epoch field present and correct.
	for _, snap := range tw.Snapshots {
		for _, r := range snap.Dataset.Records() {
			if got := r.Get("epoch"); int(got.Num) != snap.Epoch {
				t.Fatalf("record %s epoch field = %v, want %d", r.ID, got, snap.Epoch)
			}
		}
	}
	// Drift actually happened: some evolving entity has differing values
	// across epochs for the same attribute within the same source.
	if !driftObserved(tw) {
		t.Error("no drift observed across epochs")
	}
}

func driftObserved(tw *TemporalWorld) bool {
	type key struct{ src, ent, attr string }
	first := map[key]data.Value{}
	for _, snap := range tw.Snapshots {
		for _, r := range snap.Dataset.Records() {
			if !tw.Evolving[r.EntityID] {
				continue
			}
			for _, f := range r.Fields() {
				a, v := f.Attr, f.Value
				if a == "epoch" || a == "title" || a == "pid" {
					continue
				}
				k := key{r.SourceID, r.EntityID, a}
				if prev, ok := first[k]; ok {
					if !prev.Equal(v) {
						return true
					}
				} else {
					first[k] = v
				}
			}
		}
	}
	return false
}
