package schema

import (
	"math"
	"testing"

	"repro/internal/data"
)

// alignedSample builds two sources describing the same 6 entities with
// renamed attributes and a unit conversion (grams vs kilograms).
func alignedSample(t *testing.T) (*data.Dataset, data.Clustering) {
	t.Helper()
	d := data.NewDataset()
	_ = d.AddSource(&data.Source{ID: "s1"})
	_ = d.AddSource(&data.Source{ID: "s2"})
	colors := []string{"black", "white", "red", "blue", "silver", "gray"}
	var clusters data.Clustering
	for i := 0; i < 6; i++ {
		w := float64(500 + 100*i)
		a := data.NewRecord(idOf("a", i), "s1").
			Set("color", data.String(colors[i])).
			Set("weight", data.Number(w)).
			Set("brand", data.String("acme"))
		b := data.NewRecord(idOf("b", i), "s2").
			Set("colour", data.String(colors[i])).
			Set("item weight", data.Number(w/1000)). // kilograms
			Set("maker", data.String("acme"))
		a.EntityID = idOf("e", i)
		b.EntityID = idOf("e", i)
		if err := d.AddRecord(a); err != nil {
			t.Fatal(err)
		}
		if err := d.AddRecord(b); err != nil {
			t.Fatal(err)
		}
		clusters = append(clusters, data.Cluster{a.ID, b.ID})
	}
	return d, clusters.Normalize()
}

func idOf(prefix string, i int) string {
	return prefix + string(rune('0'+i))
}

func TestProfilerBuild(t *testing.T) {
	d, _ := alignedSample(t)
	profiles := Profiler{}.Build(d)
	if len(profiles) != 6 { // 3 attrs × 2 sources
		t.Fatalf("profiles = %d, want 6", len(profiles))
	}
	var weight *Profile
	for _, p := range profiles {
		if p.Source == "s1" && p.Attr == "weight" {
			weight = p
		}
	}
	if weight == nil {
		t.Fatal("missing s1/weight profile")
	}
	if weight.Count != 6 || weight.NumCount != 6 {
		t.Errorf("weight counts = %d/%d", weight.Count, weight.NumCount)
	}
	if weight.DominantKind() != data.KindNumber {
		t.Error("weight must profile as numeric")
	}
	if math.Abs(weight.NumMean-750) > 1e-9 {
		t.Errorf("weight mean = %f", weight.NumMean)
	}
	if weight.NumStd() <= 0 {
		t.Error("weight std must be positive")
	}
}

func TestProfilerSkipsBookkeepingAttrs(t *testing.T) {
	d := data.NewDataset()
	_ = d.AddSource(&data.Source{ID: "s"})
	r := data.NewRecord("r", "s").
		Set("title", data.String("x")).
		Set("pid", data.String("p")).
		Set("real", data.String("v"))
	_ = d.AddRecord(r)
	profiles := Profiler{}.Build(d)
	if len(profiles) != 1 || profiles[0].Attr != "real" {
		t.Errorf("profiles = %v", profiles)
	}
}

func TestNameSimilarity(t *testing.T) {
	p := func(attr string) *Profile {
		return &Profile{SourceAttr: SourceAttr{Source: "s", Attr: attr}}
	}
	if NameSimilarity(p("weight"), p("item weight")) <= NameSimilarity(p("weight"), p("price")) {
		t.Error("related names must outscore unrelated")
	}
	if NameSimilarity(p("color"), p("colour")) < 0.7 {
		t.Error("colour/color must be similar")
	}
}

func TestValueOverlap(t *testing.T) {
	d, _ := alignedSample(t)
	profiles := Profiler{}.Build(d)
	get := func(src, attr string) *Profile {
		for _, p := range profiles {
			if p.Source == src && p.Attr == attr {
				return p
			}
		}
		t.Fatalf("missing %s/%s", src, attr)
		return nil
	}
	// Same categorical values: high overlap.
	if got := ValueOverlap(get("s1", "color"), get("s2", "colour")); got < 0.9 {
		t.Errorf("color overlap = %f", got)
	}
	// Kind mismatch: zero.
	if got := ValueOverlap(get("s1", "weight"), get("s2", "colour")); got != 0 {
		t.Errorf("kind mismatch overlap = %f", got)
	}
	// Unit-shifted numerics have distant means: low overlap (this is
	// exactly why linkage evidence and transforms are needed).
	if got := ValueOverlap(get("s1", "weight"), get("s2", "item weight")); got > 0.5 {
		t.Errorf("g-vs-kg numeric overlap = %f, want low", got)
	}
}

func TestAlignWithCombinedEvidence(t *testing.T) {
	d, _ := alignedSample(t)
	profiles := Profiler{}.Build(d)
	ms, err := Aligner{Threshold: 0.45}.Align(profiles)
	if err != nil {
		t.Fatal(err)
	}
	// color+colour and brand+maker must cluster; weight may or may not
	// without linkage evidence (units differ).
	assertTogether(t, ms, SourceAttr{"s1", "color"}, SourceAttr{"s2", "colour"})
	assertTogether(t, ms, SourceAttr{"s1", "brand"}, SourceAttr{"s2", "maker"})
	assertApart(t, ms, SourceAttr{"s1", "color"}, SourceAttr{"s1", "brand"})
}

func TestAlignNeverMergesSameSource(t *testing.T) {
	d, _ := alignedSample(t)
	profiles := Profiler{}.Build(d)
	ms, err := Aligner{Threshold: 0.01}.Align(profiles) // aggressive merging
	if err != nil {
		t.Fatal(err)
	}
	for _, ma := range ms.Attrs {
		seen := map[string]bool{}
		for sa := range ma.Members {
			if seen[sa.Source] {
				t.Fatalf("cluster %q holds two attrs of source %s", ma.Name, sa.Source)
			}
			seen[sa.Source] = true
		}
	}
}

func TestAlignEmptyErrors(t *testing.T) {
	if _, err := (Aligner{}).Align(nil); err == nil {
		t.Error("empty profiles must error")
	}
}

func TestLinkageEvidenceRescuesUnitShiftedPair(t *testing.T) {
	d, clusters := alignedSample(t)
	profiles := Profiler{}.Build(d)
	le := testEvidence(t, d, clusters)
	ms, err := Aligner{Evidence: le.Blend, Threshold: 0.45}.Align(profiles)
	if err != nil {
		t.Fatal(err)
	}
	assertTogether(t, ms, SourceAttr{"s1", "color"}, SourceAttr{"s2", "colour"})
	assertTogether(t, ms, SourceAttr{"s1", "brand"}, SourceAttr{"s2", "maker"})
	// weight/item-weight disagree numerically (g vs kg), so linkage
	// agreement is 0 for them; they still must not be merged with color.
	assertApart(t, ms, SourceAttr{"s1", "weight"}, SourceAttr{"s2", "colour"})
}

func TestMappingProbabilities(t *testing.T) {
	d, clusters := alignedSample(t)
	profiles := Profiler{}.Build(d)
	le := testEvidence(t, d, clusters)
	ms, err := Aligner{Evidence: le.Blend, Threshold: 0.45}.Align(profiles)
	if err != nil {
		t.Fatal(err)
	}
	mp := ms.Mapping("s2")
	if len(mp) != 3 {
		t.Fatalf("s2 mapping = %v", mp)
	}
	for attr, am := range mp {
		if am.P <= 0 || am.P > 1 {
			t.Errorf("mapping %s P = %f out of range", attr, am.P)
		}
	}
	if mp["colour"].Mediated != mp["colour"].Mediated {
		t.Fatal("unreachable")
	}
}

func TestDiscoverTransforms(t *testing.T) {
	d, clusters := alignedSample(t)
	profiles := Profiler{}.Build(d)
	// Force weight attrs into one cluster via linkage+name evidence
	// with a permissive threshold on name similarity only for the test.
	le := testEvidence(t, d, clusters)
	ms, err := Aligner{Evidence: func(a, b *Profile) float64 {
		if a.Source == b.Source {
			return 0
		}
		if a.DominantKind() == data.KindNumber && b.DominantKind() == data.KindNumber {
			return 0.9 // both weights: merge
		}
		return le.Blend(a, b)
	}, Threshold: 0.45}.Align(profiles)
	if err != nil {
		t.Fatal(err)
	}
	ts := testTransforms(t, d, clusters, ms, 3)
	// Expect s1/weight → s2/item weight with scale 0.001 and inverse.
	var fwd, rev *Transform
	for i := range ts {
		tr := &ts[i]
		if tr.From == (SourceAttr{"s1", "weight"}) {
			fwd = tr
		}
		if tr.From == (SourceAttr{"s2", "item weight"}) {
			rev = tr
		}
	}
	if fwd == nil || rev == nil {
		t.Fatalf("transforms missing: %+v", ts)
	}
	if math.Abs(fwd.Scale-0.001) > 1e-9 {
		t.Errorf("forward scale = %f, want 0.001", fwd.Scale)
	}
	if math.Abs(rev.Scale-1000) > 1e-6 {
		t.Errorf("reverse scale = %f, want 1000", rev.Scale)
	}

	// Normalizer brings both sources into the same units and names.
	norm := NewNormalizer(ms, ts)
	nd := norm.ApplyAll(testColumns(t, d))
	a0, b0 := nd.Record("a0"), nd.Record("b0")
	attrs := map[string]bool{}
	for _, at := range a0.Attrs() {
		attrs[at] = true
	}
	for _, at := range b0.Attrs() {
		if !attrs[at] {
			t.Errorf("normalised records disagree on attr %q", at)
		}
	}
	// Weight values must now agree numerically.
	var wAttr string
	for _, f := range a0.Fields() {
		if f.Value.Kind == data.KindNumber {
			wAttr = f.Attr
		}
	}
	va, vb := a0.Get(wAttr), b0.Get(wAttr)
	if va.IsNull() || vb.IsNull() {
		t.Fatalf("weight attr %q missing after normalisation", wAttr)
	}
	if math.Abs(va.Num-vb.Num)/math.Max(va.Num, vb.Num) > 0.01 {
		t.Errorf("normalised weights disagree: %v vs %v", va, vb)
	}
}

func assertTogether(t *testing.T, ms *MediatedSchema, a, b SourceAttr) {
	t.Helper()
	ia, oka := ms.Of[a]
	ib, okb := ms.Of[b]
	if !oka || !okb || ia != ib {
		t.Errorf("%v and %v should share a mediated attr\n%s", a, b, ms)
	}
}

func assertApart(t *testing.T, ms *MediatedSchema, a, b SourceAttr) {
	t.Helper()
	ia, oka := ms.Of[a]
	ib, okb := ms.Of[b]
	if oka && okb && ia == ib {
		t.Errorf("%v and %v must not share a mediated attr\n%s", a, b, ms)
	}
}
