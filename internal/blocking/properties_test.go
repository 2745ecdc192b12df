package blocking

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/data"
	"repro/internal/datagen"
)

func propRecords(seed int64, n int) []*data.Record {
	w := datagen.NewWorld(datagen.WorldConfig{Seed: seed, NumEntities: n, Categories: []string{"camera"}})
	web := datagen.BuildWeb(w, datagen.SourceConfig{
		Seed: seed + 1, NumSources: 6, DirtLevel: 1, HeadFraction: 0.5, TailCoverage: 0.3,
	})
	return web.Dataset.Records()
}

// TestBlockersEmitValidPairs: every blocker yields canonical pairs of
// existing record IDs, no self-pairs, no duplicates.
func TestBlockersEmitValidPairs(t *testing.T) {
	records := propRecords(7, 30)
	known := map[string]bool{}
	for _, r := range records {
		known[r.ID] = true
	}
	blockers := map[string]Blocker{
		"token":    Standard{Key: TokenKey("title")},
		"exact":    Standard{Key: AttrExactKey("title")},
		"qgram":    Standard{Key: QGramKey("title", 3)},
		"sn":       SortedNeighborhood{Keys: []KeyFunc{AttrExactKey("title")}, Window: 4},
		"minhash":  MinHashLSH{Seed: 3},
		"phonetic": Standard{Key: PhoneticKey("title", "soundex")},
	}
	emissions := map[string][]data.Pair{
		"progress": rankedOf(t, Standard{Key: TokenKey("title")}, records, Opts{}),
	}
	for name, b := range blockers {
		emissions[name] = candidatesOf(t, b, records, Opts{})
	}
	for name, pairs := range emissions {
		seen := map[data.Pair]bool{}
		for _, p := range pairs {
			if p.A >= p.B {
				t.Fatalf("%s: non-canonical pair %v", name, p)
			}
			if !known[p.A] || !known[p.B] {
				t.Fatalf("%s: pair references unknown record %v", name, p)
			}
			if seen[p] {
				t.Fatalf("%s: duplicate pair %v", name, p)
			}
			seen[p] = true
		}
	}
}

// TestSortedNeighborhoodWindowMonotone: a wider window's candidate set
// contains the narrower window's.
func TestSortedNeighborhoodWindowMonotone(t *testing.T) {
	records := propRecords(11, 25)
	f := func(w uint8) bool {
		win := int(w%6) + 2
		small := SortedNeighborhood{Keys: []KeyFunc{AttrExactKey("title")}, Window: win}
		large := SortedNeighborhood{Keys: []KeyFunc{AttrExactKey("title")}, Window: win + 3}
		smallSet := pairSet(candidatesOf(t, small, records, Opts{}))
		largeSet := pairSet(candidatesOf(t, large, records, Opts{}))
		for p := range smallSet {
			if !largeSet[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestPurgeMonotone: purging with a smaller cap never yields more
// blocks, and purged blocks are a subset.
func TestPurgeMonotone(t *testing.T) {
	records := propRecords(13, 40)
	blocks := buildBlocks(records, TokenKey("title"))
	f := func(a, b uint8) bool {
		lo, hi := int(a%20)+1, int(a%20)+1+int(b%20)
		pl := blocksOf(blocks.Purge(lo))
		ph := blocksOf(blocks.Purge(hi))
		if len(pl) > len(ph) {
			return false
		}
		for k := range pl {
			if _, ok := ph[k]; !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestProgressiveStreamIsPermutationOfCandidates: the progressive
// stream contains exactly the standard candidate set, reordered.
func TestProgressiveStreamIsPermutationOfCandidates(t *testing.T) {
	records := propRecords(17, 30)
	prog := rankedOf(t, Standard{Key: TokenKey("title")}, records, Opts{})
	std := candidatesOf(t, Standard{Key: TokenKey("title")}, records, Opts{})
	if len(prog) != len(std) {
		t.Fatalf("stream %d pairs vs standard %d", len(prog), len(std))
	}
	ps := pairSet(prog)
	for _, p := range std {
		if !ps[p] {
			t.Fatalf("standard pair %v missing from stream", p)
		}
	}
}

// TestMetaBlockingOutputSubset: meta-blocking only ever prunes — its
// candidates are a subset of the raw block pairs.
func TestMetaBlockingOutputSubset(t *testing.T) {
	records := propRecords(19, 30)
	blocks := buildBlocks(records, TokenKey("title"))
	raw := pairSet(blocks.Pairs())
	for _, weight := range []WeightScheme{CBS, ECBS, JS} {
		for _, prune := range []PruneScheme{WEP, CEP, WNP} {
			got := MetaBlocker{Weight: weight, Prune: prune}.Pruned(blocks).Pairs()
			for _, p := range got {
				if !raw[p] {
					t.Fatalf("%v/%v emitted pair %v outside raw candidates", weight, prune, p)
				}
			}
		}
	}
}

// TestTechniqueOrdersCoverTheSameSet: a technique's two emission orders
// share one front half, so the pair set of Candidates equals the pair
// set of its Ranked stream, and both are free of duplicates and self
// pairs — for sorted neighbourhood, MinHash-LSH and a key blocker, on
// two dirty webs at every worker count.
func TestTechniqueOrdersCoverTheSameSet(t *testing.T) {
	type technique struct {
		name string
		b    RankedBlocker
	}
	var techniques []technique
	snKeys := []KeyFunc{AttrExactKey("title"), AttrPrefixKey("title", 3)}
	for _, keys := range [][]KeyFunc{snKeys[:1], snKeys} {
		for _, window := range []int{2, 5, 9} {
			techniques = append(techniques, technique{
				fmt.Sprintf("sn passes=%d window=%d", len(keys), window),
				SortedNeighborhood{Keys: keys, Window: window},
			})
		}
	}
	for _, shape := range [][2]int{{8, 4}, {16, 2}} {
		techniques = append(techniques, technique{
			fmt.Sprintf("minhash %dx%d", shape[0], shape[1]),
			MinHashLSH{Bands: shape[0], Rows: shape[1], Seed: 3},
		})
	}
	techniques = append(techniques, technique{"token key", Standard{Key: TokenKey("title"), MaxBlock: 20}})

	distinct := func(name string, pairs []data.Pair) map[data.Pair]bool {
		set := map[data.Pair]bool{}
		for _, p := range pairs {
			if p.A == p.B {
				t.Fatalf("%s: self pair %v", name, p)
			}
			if set[p] {
				t.Fatalf("%s: duplicate pair %v", name, p)
			}
			set[p] = true
		}
		return set
	}
	for _, seed := range []int64{23, 29} {
		records := propRecords(seed, 30)
		for _, tq := range techniques {
			for _, w := range workerCounts {
				name := fmt.Sprintf("seed=%d %s workers=%d", seed, tq.name, w)
				cands := distinct(name+" candidates", candidatesOf(t, tq.b, records, Opts{Workers: w}))
				ranked := distinct(name+" ranked", rankedOf(t, tq.b, records, Opts{Workers: w}))
				if len(cands) == 0 {
					t.Fatalf("%s: no candidates", name)
				}
				if len(cands) != len(ranked) {
					t.Fatalf("%s: %d candidates, %d ranked", name, len(cands), len(ranked))
				}
				for p := range cands {
					if !ranked[p] {
						t.Fatalf("%s: candidate %v missing from the ranked stream", name, p)
					}
				}
			}
		}
	}
}

// TestFuseStreamsAppendNeverDemotes: appending a pair to one more
// ranked stream only adds to its reciprocal-rank score and leaves every
// other pair's score alone, so the pair never moves later in the fused
// order.
func TestFuseStreamsAppendNeverDemotes(t *testing.T) {
	records := fusionWorld(t)
	e := NewEngineOpts(records, Opts{Workers: 0})
	streams := rankedCodes(e, fusionBlockers())
	position := func(streams []codeStream, code uint64) int {
		p := e.set([]uint64{code}).Pairs()[0]
		return slices.Index(fuseCodes(e, DefaultRRFK, streams).Pairs(), p)
	}
	checked := 0
	for from := range streams {
		codes := streams[from]
		for n := 0; n < len(codes); n += len(codes)/6 + 1 { // a sample keeps the fusions few
			code := codes[n]
			before := position(streams, code)
			for to := range streams {
				if slices.Contains(streams[to], code) {
					continue
				}
				grown := slices.Clone(streams)
				grown[to] = append(slices.Clone(streams[to]), code)
				if after := position(grown, code); after < 0 || after > before {
					t.Fatalf("appending a pair to stream %d moved it from %d to %d", to, before, after)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no stream lacked a sampled pair; the property went unchecked")
	}
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestRRFNonPositiveKIsDefault: k = 0 and k = -1 fuse to the same
// bytes as DefaultRRFK, over precomputed streams and live blockers
// alike.
func TestRRFNonPositiveKIsDefault(t *testing.T) {
	records := fusionWorld(t)
	e := NewEngineOpts(records, Opts{Workers: 0})
	blockers := fusionBlockers()
	streams := rankedCodes(e, blockers)
	want := fuseCodes(e, DefaultRRFK, streams).Pairs()
	if len(want) == 0 {
		t.Fatal("default fusion produced no pairs")
	}
	for _, k := range []float64{0, -1} {
		if got := fuseCodes(e, k, streams).Pairs(); !slices.Equal(got, want) {
			t.Errorf("fused streams (k=%v) differ from DefaultRRFK", k)
		}
		if got := e.FuseRanked(k, blockers...).Pairs(); !slices.Equal(got, want) {
			t.Errorf("FuseRanked(k=%v) differs from DefaultRRFK", k)
		}
	}
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
}
