package blocking

import (
	"fmt"
	"testing"

	"repro/internal/data"
)

// noisyBlocks builds a token-blocking collection where true pairs share
// many blocks and noise pairs share only one.
func noisyBlocks() (*Indexed, []data.Pair) {
	recs := []*data.Record{
		rec("a1", "acme rocket skate deluxe"),
		rec("a2", "acme rocket skate deluxe kit"),
		rec("b1", "zenix photon blender max"),
		rec("b2", "zenix photon blender max pro"),
		// Noise: shares exactly one token with each group.
		rec("n1", "acme zenix catalog"),
	}
	truth := []data.Pair{data.NewPair("a1", "a2"), data.NewPair("b1", "b2")}
	return buildBlocks(recs, TokenKey("title")), truth
}

func TestMetaBlockingReducesComparisons(t *testing.T) {
	blocks, truth := noisyBlocks()
	base := blocks.Pairs()
	for _, scheme := range []WeightScheme{CBS, ECBS, JS} {
		mb := MetaBlocker{Weight: scheme, Prune: WEP}
		pruned := mb.Pruned(blocks).Pairs()
		if len(pruned) >= len(base) {
			t.Errorf("scheme %v: pruned %d >= base %d", scheme, len(pruned), len(base))
		}
		got := pairSet(pruned)
		for _, p := range truth {
			if !got[p] {
				t.Errorf("scheme %v dropped true pair %v", scheme, p)
			}
		}
	}
}

func TestMetaBlockingCEPRespectsBudget(t *testing.T) {
	blocks, _ := noisyBlocks()
	mb := MetaBlocker{Weight: CBS, Prune: CEP}
	pruned := mb.Pruned(blocks).Pairs()
	budget := 0
	for _, ids := range blocks.rows {
		budget += len(ids)
	}
	budget /= 2
	if len(pruned) > budget {
		t.Errorf("CEP kept %d edges, budget %d", len(pruned), budget)
	}
	if len(pruned) == 0 {
		t.Error("CEP must keep at least one edge")
	}
}

func TestMetaBlockingWNPKeepsLocalBest(t *testing.T) {
	blocks, truth := noisyBlocks()
	pruned := MetaBlocker{Weight: JS, Prune: WNP}.Pruned(blocks).Pairs()
	got := pairSet(pruned)
	for _, p := range truth {
		if !got[p] {
			t.Errorf("WNP dropped true pair %v", p)
		}
	}
}

func TestMetaBlockingEmpty(t *testing.T) {
	for _, prune := range []PruneScheme{WEP, CEP, WNP} {
		if got := (MetaBlocker{Prune: prune}).Pruned(buildBlocks(nil, TokenKey("title"))).Pairs(); len(got) != 0 {
			t.Errorf("empty blocks must yield nothing, got %v", got)
		}
	}
}

func TestMetaBlockingDeterministic(t *testing.T) {
	blocks, _ := noisyBlocks()
	mb := MetaBlocker{Weight: ECBS, Prune: CEP}
	a := mb.Pruned(blocks).Pairs()
	b := mb.Pruned(blocks).Pairs()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order differs at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestMetaBlockingAtScaleBeatsTokenBlocking(t *testing.T) {
	// 40 entities × 2 records each, titles share brand tokens heavily.
	var recs []*data.Record
	var truth []data.Pair
	brands := []string{"acme", "zenix", "orion", "nova"}
	for i := 0; i < 40; i++ {
		brand := brands[i%len(brands)]
		t1 := fmt.Sprintf("%s model %d alpha beta", brand, i)
		t2 := fmt.Sprintf("%s model %d alpha", brand, i)
		a, b := fmt.Sprintf("m%da", i), fmt.Sprintf("m%db", i)
		recs = append(recs, rec(a, t1), rec(b, t2))
		truth = append(truth, data.NewPair(a, b))
	}
	blocks := buildBlocks(recs, TokenKey("title"))
	base := blocks.Pairs()
	pruned := MetaBlocker{Weight: ECBS, Prune: WEP}.Pruned(blocks).Pairs()
	if len(pruned) >= len(base)/2 {
		t.Errorf("meta-blocking kept %d of %d pairs, want < half", len(pruned), len(base))
	}
	got := pairSet(pruned)
	hits := 0
	for _, p := range truth {
		if got[p] {
			hits++
		}
	}
	if float64(hits)/float64(len(truth)) < 0.9 {
		t.Errorf("meta-blocking recall = %d/%d, want >= 0.9", hits, len(truth))
	}
}
