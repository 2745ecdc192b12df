package data_test

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/data"
	"repro/internal/datagen"
)

// web generates a dirty 20-source web of the given number of entities
// and clusters it with pairs of entities folded together, so clusters
// hold two records of one source.
func web(entities int) (*data.Dataset, data.Clustering, []string) {
	w := datagen.NewWorld(datagen.WorldConfig{Seed: 5, NumEntities: entities})
	d := datagen.BuildWeb(w, datagen.SourceConfig{
		Seed: 6, NumSources: 20, DirtLevel: 1, IdentifierRate: 0.9,
		Heterogeneity: 0.5, HeadFraction: 0.4, TailCoverage: 0.3,
	}).Dataset
	var attrs []string
	for _, ac := range d.Attributes() {
		attrs = append(attrs, ac.Attr)
	}
	byEnt := map[string]int{}
	var clusters data.Clustering
	for _, r := range d.Records() {
		k := r.EntityID[:len(r.EntityID)-1]
		if _, ok := byEnt[k]; !ok {
			byEnt[k] = len(clusters)
			clusters = append(clusters, nil)
		}
		clusters[byEnt[k]] = append(clusters[byEnt[k]], r.ID)
	}
	return d, clusters, attrs
}

// TestClaimTableCost pins what writing the claim table costs: a number of
// allocations that does not grow with the claim count, and at most 40
// bytes a claim beyond the value table (canonical values and ranks).
func TestClaimTableCost(t *testing.T) {
	type cost struct {
		claims, allocs int
		perClaim       float64
	}
	measure := func(entities int) cost {
		d, clusters, attrs := web(entities)
		cs := data.ClaimsFromClusters(d, clusters, attrs)
		if err := cs.Validate(); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(3, func() { data.ClaimsFromClusters(d, clusters, attrs) })
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		data.ClaimsFromClusters(d, clusters, attrs)
		runtime.ReadMemStats(&after)
		cols := cs.Columns()
		values := cap(cols.Values)*int(unsafe.Sizeof(data.Value{})) + cap(cols.Rank)*4
		beyond := int(after.TotalAlloc-before.TotalAlloc) - values
		return cost{claims: cs.Len(), allocs: int(allocs), perClaim: float64(beyond) / float64(cs.Len())}
	}
	small, large := measure(100), measure(400)
	t.Logf("claims %d: %d allocs, %.1f B/claim; claims %d: %d allocs, %.1f B/claim",
		small.claims, small.allocs, small.perClaim, large.claims, large.allocs, large.perClaim)
	if large.claims < 3*small.claims {
		t.Fatalf("the large web has %d claims, the small %d: too close to compare", large.claims, small.claims)
	}
	if large.allocs > small.allocs+4 {
		t.Errorf("allocations grow with the claims: %d for %d claims, %d for %d", small.allocs, small.claims, large.allocs, large.claims)
	}
	for _, c := range []cost{small, large} {
		if c.perClaim > 40 {
			t.Errorf("%d claims cost %.1f B a claim beyond the value table, want at most 40", c.claims, c.perClaim)
		}
	}
}
