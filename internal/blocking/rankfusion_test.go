package blocking

import (
	"slices"
	"testing"

	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/obs"
)

func TestFuseRRFCodesReferenceOrder(t *testing.T) {
	// k=1: code 20 scores 1/2 + 1/3, 10 scores 1/2, 40 scores 1/3,
	// 30 scores 1/4 — consensus first, then by best single rank.
	got := FuseRRFCodes(1, []uint64{10, 20, 30}, []uint64{20, 40})
	want := []uint64{20, 10, 40, 30}
	if !slices.Equal(got, want) {
		t.Fatalf("fused order = %v, want %v", got, want)
	}
	// Ties (equal score from identical ranks in disjoint streams) break
	// by ascending code.
	got = FuseRRFCodes(60, []uint64{9}, []uint64{4})
	if !slices.Equal(got, []uint64{4, 9}) {
		t.Fatalf("tie order = %v, want [4 9]", got)
	}
	// k <= 0 resolves to the default constant.
	a := FuseRRFCodes(0, []uint64{3, 1}, []uint64{1})
	b := FuseRRFCodes(DefaultRRFK, []uint64{3, 1}, []uint64{1})
	if !slices.Equal(a, b) {
		t.Fatalf("k=0 order %v differs from default-k order %v", a, b)
	}
	if out := FuseRRFCodes(60); len(out) != 0 {
		t.Fatalf("no streams must fuse to nothing, got %v", out)
	}
}

// fusionWorld is a small dirty workload with enough key collisions that
// every ranked producer emits a non-trivial stream.
func fusionWorld(t *testing.T) []*data.Record {
	t.Helper()
	w := datagen.NewWorld(datagen.WorldConfig{Seed: 31, NumEntities: 60, Categories: []string{"camera"}})
	web := datagen.BuildWeb(w, datagen.SourceConfig{
		Seed: 32, NumSources: 8, DirtLevel: 2,
		IdentifierRate: 0.9, HeadFraction: 0.4, TailCoverage: 0.3,
	})
	return web.Dataset.Records()
}

func fusionBlockers() []RankedBlocker {
	return []RankedBlocker{
		Standard{Key: TokenKey("title"), MaxBlock: 100},
		Standard{Key: QGramKey("title", 3), MaxBlock: 100},
		MinHashLSH{Attrs: []string{"title", "pid"}},
		SortedNeighborhood{Keys: []KeyFunc{AttrExactKey("pid"), AttrExactKey("title")}, Window: 5},
	}
}

func TestRankedStreamsAreDeduplicated(t *testing.T) {
	records := fusionWorld(t)
	e := NewEngineOpts(records, Opts{Workers: 0})
	for i, b := range fusionBlockers() {
		s := b.Ranked(e)
		if s.Spilled() || s.Len() == 0 {
			t.Fatalf("stream %d (%T) is spilled or empty", i, b)
		}
		seen := make(map[uint64]bool, len(s.codes))
		for _, c := range s.codes {
			if seen[c] {
				t.Fatalf("stream %d (%T) contains duplicate code %d", i, b, c)
			}
			seen[c] = true
		}
	}
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestFuseStreamsMatchesSequentialReference(t *testing.T) {
	records := fusionWorld(t)
	ref := NewEngineOpts(records, Opts{Workers: 0})
	blockers := fusionBlockers()
	codeLists := make([][]uint64, len(blockers))
	for i, s := range rankedCodes(ref, blockers) {
		codeLists[i] = s
	}
	const k = 60
	wantPairs := ref.set(FuseRRFCodes(k, codeLists...)).Pairs()
	if len(wantPairs) == 0 {
		t.Fatal("reference fusion produced no pairs")
	}

	// The parallel kernel must reproduce the sequential reference for
	// every worker × shard combination, bit for bit.
	for _, workers := range []int{1, 2, 8} {
		for _, shards := range []int{1, 4, 16} {
			e := NewEngineOpts(records, Opts{Workers: workers, Shards: shards})
			cs := e.FuseRanked(k, blockers...)
			if err := e.Err(); err != nil {
				t.Fatalf("workers=%d shards=%d: %v", workers, shards, err)
			}
			if got := cs.Pairs(); !slices.Equal(got, wantPairs) {
				t.Fatalf("workers=%d shards=%d: fused stream diverged from reference", workers, shards)
			}
		}
	}
}

func TestFuseStreamsSpillPathReplaysFusedOrder(t *testing.T) {
	records := fusionWorld(t)
	ref := NewEngineOpts(records, Opts{Workers: 0})
	blockers := fusionBlockers()
	want := ref.FuseRanked(60, blockers...).Pairs()

	reg := obs.NewRegistry()
	e := NewEngineOpts(records, Opts{
		Workers: 2, Shards: 4, PairMemBudget: int64(len(want)), Obs: reg, SpillDir: t.TempDir(),
	})
	cs := e.FuseRanked(60, blockers...)
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	if !cs.Spilled() {
		t.Fatal("tiny pair-memory budget must spill the fused stream")
	}
	var got []data.Pair
	cs.EmitPairs(func(p data.Pair) bool {
		got = append(got, p)
		return true
	})
	if !slices.Equal(got, want) {
		t.Fatal("spilled fused stream diverged from the in-memory order")
	}
	if cs.Len() != len(want) {
		t.Fatalf("spilled Len = %d, want %d", cs.Len(), len(want))
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("blocking.rrf_spilled").Value() == 0 || reg.Counter("blocking.spill_runs").Value() == 0 {
		t.Error("spill counters not recorded")
	}
}

func TestFuseStreamsEmptyInputs(t *testing.T) {
	records := fusionWorld(t)
	e := NewEngineOpts(records, Opts{Workers: 0})
	if cs := e.FuseRanked(60); cs.Len() != 0 {
		t.Fatalf("fusing zero streams produced %d pairs", cs.Len())
	}
	if cs := e.FuseRanked(60, codeStream(nil)); cs.Len() != 0 {
		t.Fatalf("fusing an empty stream produced %d pairs", cs.Len())
	}
	// An empty stream alongside a real one contributes nothing.
	token := Standard{Key: TokenKey("title"), MaxBlock: 100}
	got := e.FuseRanked(60, codeStream(nil), token).Pairs()
	want := e.set(FuseRRFCodes(60, nil, token.Ranked(e).codes)).Pairs()
	if !slices.Equal(got, want) {
		t.Fatal("empty stream changed the fused order")
	}
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
}
