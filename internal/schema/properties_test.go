package schema

import (
	"testing"
	"testing/quick"

	"repro/internal/datagen"
)

func propWeb(seed int64) *datagen.Web {
	w := datagen.NewWorld(datagen.WorldConfig{Seed: seed, NumEntities: 25, Categories: []string{"camera"}})
	return datagen.BuildWeb(w, datagen.SourceConfig{
		Seed: seed + 1, NumSources: 6, DirtLevel: 1, Heterogeneity: 0.6,
		HeadFraction: 0.5, TailCoverage: 0.3,
	})
}

// TestNormalizerPreservesRecords: normalisation keeps record identity,
// provenance, ground truth and count.
func TestNormalizerPreservesRecords(t *testing.T) {
	f := func(seed int64) bool {
		web := propWeb(seed % 1000)
		d := web.Dataset
		profiles := Profiler{}.Build(d)
		if len(profiles) == 0 {
			return true
		}
		ms, err := (Aligner{Threshold: 0.5}).Align(profiles)
		if err != nil {
			return false
		}
		nd := NewNormalizer(ms, nil).ApplyAll(testColumns(t, d))
		if nd.NumRecords() != d.NumRecords() || nd.NumSources() != d.NumSources() {
			return false
		}
		for _, r := range d.Records() {
			nr := nd.Record(r.ID)
			if nr == nil || nr.SourceID != r.SourceID || nr.EntityID != r.EntityID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Error(err)
	}
}

// TestAlignerPartitionsAllProfiles: the mediated schema assigns every
// profiled source attribute to exactly one cluster.
func TestAlignerPartitionsAllProfiles(t *testing.T) {
	web := propWeb(3)
	profiles := Profiler{}.Build(web.Dataset)
	ms, err := (Aligner{Threshold: 0.5}).Align(profiles)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms.Of) != len(profiles) {
		t.Fatalf("Of covers %d of %d profiles", len(ms.Of), len(profiles))
	}
	counted := 0
	for _, ma := range ms.Attrs {
		counted += len(ma.Members)
		for sa, p := range ma.Members {
			if p <= 0 || p > 1 {
				t.Errorf("membership P(%v) = %f", sa, p)
			}
			if idx, ok := ms.Of[sa]; !ok || ms.Attrs[idx] != ma {
				t.Errorf("Of inconsistent for %v", sa)
			}
		}
	}
	if counted != len(profiles) {
		t.Errorf("clusters hold %d members, want %d", counted, len(profiles))
	}
}

// TestEvidenceFunctionsBounded: every evidence function stays in [0,1]
// and is symmetric.
func TestEvidenceFunctionsBounded(t *testing.T) {
	web := propWeb(5)
	d := web.Dataset
	profiles := Profiler{}.Build(d)
	le := testEvidence(t, d, d.GroundTruthClusters())
	evidences := map[string]MatchEvidence{
		"name":      NameSimilarity,
		"value":     ValueOverlap,
		"token":     TokenOverlap,
		"combined":  Combined,
		"blend":     le.Blend,
		"agreeOnly": le.BlendAgreementOnly,
	}
	for name, ev := range evidences {
		for i := 0; i < len(profiles); i++ {
			for j := 0; j < len(profiles); j++ {
				s := ev(profiles[i], profiles[j])
				if s < 0 || s > 1 {
					t.Fatalf("%s(%v,%v) = %f out of range", name, profiles[i].SourceAttr, profiles[j].SourceAttr, s)
				}
				if r := ev(profiles[j], profiles[i]); r != s {
					t.Fatalf("%s asymmetric: %f vs %f", name, s, r)
				}
			}
		}
	}
}

// TestTransformsHaveInverses: when A→B with scale s is discovered on
// well-supported numeric pairs, B→A appears with scale ≈ 1/s.
func TestTransformsHaveInverses(t *testing.T) {
	d, clusters := alignedSample(t)
	profiles := Profiler{}.Build(d)
	le := testEvidence(t, d, clusters)
	ms, err := (Aligner{Evidence: le.Blend, Threshold: 0.45}).Align(profiles)
	if err != nil {
		t.Fatal(err)
	}
	ts := testTransforms(t, d, clusters, ms, 3)
	index := map[[2]SourceAttr]float64{}
	for _, tr := range ts {
		index[[2]SourceAttr{tr.From, tr.To}] = tr.Scale
	}
	for _, tr := range ts {
		inv, ok := index[[2]SourceAttr{tr.To, tr.From}]
		if !ok {
			t.Fatalf("missing inverse for %v -> %v", tr.From, tr.To)
		}
		prod := tr.Scale * inv
		if prod < 0.9 || prod > 1.1 {
			t.Errorf("scale product %f for %v<->%v, want ~1", prod, tr.From, tr.To)
		}
	}
}
