package blocking

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"slices"
	"testing"

	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/obs"
)

var shardCounts = []int{1, 4, 16}

// pinKeys is the blocker matrix for the sharded/spilled identity pins.
func pinKeys() map[string]KeyFunc {
	return map[string]KeyFunc{
		"token":  TokenKey("title"),
		"prefix": AttrPrefixKey("title", 4),
		"exact":  AttrExactKey("pid"),
		"qgram":  QGramKey("title", 3),
		"all":    AllTokensKey(),
	}
}

// TestShardedMatchesUnsharded pins the acceptance criterion: sharded
// engine output is byte-identical to the unsharded engine for every
// blocker key at workers ∈ {1,2,8} × shards ∈ {1,4,16}, purged and
// unpurged.
func TestShardedMatchesUnsharded(t *testing.T) {
	recs := detRecords(300)
	for name, key := range pinKeys() {
		for _, max := range []int{0, 40} {
			want := NewEngineOpts(recs, Opts{Workers: 1}).Blocks(key).Purge(max).Pairs()
			for _, w := range workerCounts {
				for _, s := range shardCounts {
					e := NewEngineOpts(recs, Opts{Workers: w, Shards: s})
					got := e.Blocks(key).Purge(max).Pairs()
					samePairs(t, fmt.Sprintf("%s max=%d workers=%d shards=%d", name, max, w, s), want, got)
				}
			}
		}
	}
}

// TestShardsDoNotChangeInMemoryCost: with no pair budget the shard
// count selects nothing — CandidateSet runs the one in-memory sweep, so
// it returns the same codes and allocates the same bytes at any Shards.
func TestShardsDoNotChangeInMemoryCost(t *testing.T) {
	recs := datagen.ScaleRecords(datagen.ScaleConfig{Seed: 42, NumRecords: 20_000})
	sweep := func(shards int) (codes []uint64, allocated uint64) {
		idx := NewEngineOpts(recs, Opts{Workers: 2, Shards: shards}).Blocks(TokenKey("title")).Purge(8)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cs := idx.CandidateSet()
		runtime.ReadMemStats(&after)
		return cs.codes, after.TotalAlloc - before.TotalAlloc
	}
	want, base := sweep(0)
	if len(want) == 0 {
		t.Fatal("no candidates")
	}
	for _, shards := range []int{4, 16} {
		got, allocated := sweep(shards)
		if !slices.Equal(got, want) {
			t.Fatalf("shards=%d: codes differ from shards=0", shards)
		}
		if float64(allocated) > 1.1*float64(base) {
			t.Fatalf("shards=%d: CandidateSet allocated %d B, %d B at shards=0", shards, allocated, base)
		}
	}
}

// TestSpilledMatchesInMemory pins the external path: a budget far below
// the raw pair bytes forces run spilling, and the streamed result must
// be byte-identical to the in-memory sweep at every worker and shard
// count.
func TestSpilledMatchesInMemory(t *testing.T) {
	recs := detRecords(300)
	const budget = 1 << 6 // 64 bytes ≪ raw pair bytes for every key
	for name, key := range pinKeys() {
		want := NewEngineOpts(recs, Opts{Workers: 1}).Blocks(key).Pairs()
		for _, w := range workerCounts {
			for _, s := range shardCounts {
				e := NewEngineOpts(recs, Opts{
					Workers:       w,
					Shards:        s,
					PairMemBudget: budget,
					SpillDir:      t.TempDir(),
				})
				cs := e.Blocks(key).CandidateSet()
				// Raw pairs ≥ emitted pairs, so past this threshold the
				// budget must have engaged the external path.
				if int64(len(want))*8 > budget && !cs.Spilled() {
					t.Fatalf("%s workers=%d shards=%d: budget did not trigger spill", name, w, s)
				}
				samePairs(t, fmt.Sprintf("%s workers=%d shards=%d spilled", name, w, s), want, cs.Pairs())
				if got := cs.Len(); got != len(want) {
					t.Fatalf("%s: spilled Len = %d, want %d", name, got, len(want))
				}
				if err := cs.Close(); err != nil {
					t.Fatalf("%s: Close: %v", name, err)
				}
			}
		}
	}
}

// TestSpilledEmitReplaysAndStopsEarly: a spilled set is re-emittable
// (the runs persist until Close) and honours early stop.
func TestSpilledEmitReplaysAndStopsEarly(t *testing.T) {
	recs := detRecords(200)
	e := NewEngineOpts(recs, Opts{Shards: 4, PairMemBudget: 1 << 12, SpillDir: t.TempDir()})
	cs := e.Blocks(TokenKey("title")).CandidateSet()
	defer cs.Close()
	if !cs.Spilled() {
		t.Fatal("budget did not trigger spill")
	}
	first := cs.Pairs()
	second := cs.Pairs()
	samePairs(t, "replay", first, second)
	var head []data.Pair
	cs.EmitPairs(func(p data.Pair) bool {
		head = append(head, p)
		return len(head) < 5
	})
	if len(head) != 5 {
		t.Fatalf("early stop emitted %d pairs, want 5", len(head))
	}
	samePairs(t, "early-stop prefix", first[:5], head)
}

// TestSpilledUnionStaysExternal: the union of token and identifier
// blocks, taken as one concatenated pass, spills as one set, matches
// the in-memory pass byte for byte, and a single Close removes the
// set's run directory.
func TestSpilledUnionStaysExternal(t *testing.T) {
	recs := detRecords(250)
	pass := func(e *Engine) *CandidateSet {
		return e.Concat(e.Blocks(TokenKey("title")), e.Blocks(AttrExactKey("pid"))).CandidateSet()
	}
	want := pass(NewEngineOpts(recs, Opts{Workers: 2})).Pairs()

	dir := t.TempDir()
	cs := pass(NewEngineOpts(recs, Opts{Workers: 2, Shards: 4, PairMemBudget: 1 << 12, SpillDir: dir}))
	if !cs.Spilled() {
		t.Fatal("concatenated pass did not spill")
	}
	samePairs(t, "spilled concatenated pass", want, cs.Pairs())
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	assertEmptyDir(t, dir)
}

// TestSpilledUnionLaterPosition: a spilled set that is not the first
// non-empty operand is materialised through its stream — the union is
// in-memory, its order matches the in-memory union, and the spilled
// operand stays usable for its caller to close.
func TestSpilledUnionLaterPosition(t *testing.T) {
	recs := detRecords(250)
	mem := NewEngineOpts(recs, Opts{Workers: 2})
	want := mem.Union(
		mem.Blocks(AttrExactKey("pid")).CandidateSet(),
		mem.Blocks(TokenKey("title")).CandidateSet(),
	).Pairs()

	e := NewEngineOpts(recs, Opts{Shards: 4, PairMemBudget: 1 << 12, SpillDir: t.TempDir()})
	spilled := e.Blocks(TokenKey("title")).CandidateSet()
	defer spilled.Close()
	if !spilled.Spilled() {
		t.Fatal("token set did not spill")
	}
	id := e.Blocks(AttrExactKey("pid")).CandidateSet()
	u := e.Union(id, spilled)
	if u.Spilled() {
		t.Fatal("union with a later spilled operand should be in-memory")
	}
	samePairs(t, "later-position spilled union", want, u.Pairs())
	if spilled.Len() == 0 || len(spilled.Pairs()) != spilled.Len() {
		t.Fatal("spilled operand unusable after the union")
	}
}

// TestIndexedPairsLeaveNoSpill: Pairs on a budgeted engine closes the
// set it builds, and a stopped stream's Close removes its set's runs,
// so no run directory outlives them.
func TestIndexedPairsLeaveNoSpill(t *testing.T) {
	recs := detRecords(200)
	dir := t.TempDir()
	idx := NewEngineOpts(recs, Opts{PairMemBudget: 1 << 10, SpillDir: dir}).Blocks(TokenKey("title"))
	if len(idx.Pairs()) == 0 {
		t.Fatal("fixture produced no pairs")
	}
	cs := idx.CandidateSet()
	cs.EmitPairs(func(data.Pair) bool { return false })
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	assertEmptyDir(t, dir)
}

// assertEmptyDir fails the test when dir holds anything.
func assertEmptyDir(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("%d spill entries left in %s", len(ents), dir)
	}
}

// TestSpillObsCounters: spill-run and merge counters are visible in an
// obs snapshot, per the acceptance criteria.
func TestSpillObsCounters(t *testing.T) {
	recs := detRecords(200)
	reg := obs.NewRegistry()
	e := NewEngineOpts(recs, Opts{Shards: 4, PairMemBudget: 1 << 12, SpillDir: t.TempDir(), Obs: reg})
	cs := e.Blocks(TokenKey("title")).CandidateSet()
	defer cs.Close()
	cs.Pairs() // one replay of the position buckets
	snap := reg.Snapshot()
	vals := map[string]int64{}
	for _, c := range snap.Counters {
		vals[c.Name] = c.Value
	}
	for _, name := range []string{
		"blocking.spill_runs", "blocking.spill_bytes", "blocking.pairs_spilled",
		"blocking.spill_merge_runs", "blocking.spill_merges",
	} {
		if vals[name] <= 0 {
			t.Fatalf("counter %s = %d, want > 0 (snapshot: %v)", name, vals[name], vals)
		}
	}
}

// TestSpilledRecordIDs: a spilled set has the in-memory set's ID table
// and streams its codes from disk in the same order.
func TestSpilledRecordIDs(t *testing.T) {
	recs := detRecords(150)
	mem := NewEngineOpts(recs, Opts{Workers: 1}).Blocks(TokenKey("title")).CandidateSet()
	e := NewEngineOpts(recs, Opts{PairMemBudget: 1 << 10, SpillDir: t.TempDir()})
	cs := e.Blocks(TokenKey("title")).CandidateSet()
	defer cs.Close()
	if !cs.Spilled() {
		t.Fatal("set did not spill")
	}
	if !slices.Equal(cs.IDs(), mem.IDs()) {
		t.Fatalf("spilled IDs differ from in-memory IDs")
	}
	codes := func(c *CandidateSet) []uint64 {
		var out []uint64
		if err := c.EmitCodes(func(code uint64) bool {
			out = append(out, code)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	if got, want := codes(cs), codes(mem); len(want) == 0 || !slices.Equal(got, want) {
		t.Fatalf("spilled codes (%d) differ from in-memory codes (%d)", len(got), len(want))
	}
}

// TestShardedMetaBlockingMatchesSeed: meta-blocking over a sharded
// engine's index is unchanged — the shard knobs only affect pair
// generation, never the block collection it sees.
func TestShardedMetaBlockingMatchesSeed(t *testing.T) {
	recs := detRecords(300)
	blocks := refBuildBlocks(recs, TokenKey("title"))
	for _, weight := range []WeightScheme{CBS, ECBS, JS} {
		mb := MetaBlocker{Weight: weight, Prune: WEP}
		want := refMetaCandidates(mb, blocks)
		for _, s := range shardCounts {
			e := NewEngineOpts(recs, Opts{Workers: 2, Shards: s})
			got := mb.Pruned(e.Blocks(TokenKey("title"))).Pairs()
			samePairs(t, fmt.Sprintf("meta weight=%d shards=%d", weight, s), want, got)
		}
	}
}

// TestSpillCancellation: a cancelled context poisons the engine instead
// of panicking, and the spill directory is cleaned up.
func TestSpillCancellation(t *testing.T) {
	recs := detRecords(200)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dir := t.TempDir()
	e := NewEngineOpts(recs, Opts{Shards: 4, PairMemBudget: 1 << 12, SpillDir: dir, Ctx: ctx})
	cs := e.Blocks(TokenKey("title")).CandidateSet()
	if e.Err() == nil {
		t.Fatal("cancelled engine reported no error")
	}
	if cs.Len() != 0 {
		t.Fatalf("poisoned engine produced %d pairs", cs.Len())
	}
	assertEmptyDir(t, dir)
}
