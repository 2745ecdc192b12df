package blocking

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/data"
)

// ---------------------------------------------------------------------
// Reference implementations: verbatim copies of the sequential seed
// code the engine replaced. The regression tests below require the
// engine's output to be byte-identical to these at every worker count.
// ---------------------------------------------------------------------

// refBlocks is the sequential map form of a block collection: record
// IDs grouped by key, in input order within a block.
type refBlocks map[string][]string

func (b refBlocks) purge(maxSize int) refBlocks {
	if maxSize <= 0 {
		return b
	}
	out := refBlocks{}
	for k, ids := range b {
		if len(ids) <= maxSize {
			out[k] = ids
		}
	}
	return out
}

func (b refBlocks) sortedKeys() []string {
	keys := make([]string, 0, len(b))
	for k := range b {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// blocksOf materialises the map form of an interned collection.
func blocksOf(x *Indexed) refBlocks {
	b := make(refBlocks, len(x.keys))
	for i, k := range x.keys {
		ids := make([]string, len(x.rows[i]))
		for j, r := range x.rows[i] {
			ids[j] = x.eng.rk.ids[r]
		}
		b[k] = ids
	}
	return b
}

func refBuildBlocks(records []*data.Record, key KeyFunc) refBlocks {
	b := refBlocks{}
	for _, r := range records {
		seen := map[string]bool{}
		for _, k := range key(r) {
			if k == "" || seen[k] {
				continue
			}
			seen[k] = true
			b[k] = append(b[k], r.ID)
		}
	}
	return b
}

func refPairs(b refBlocks) []data.Pair {
	seen := map[data.Pair]bool{}
	keys := b.sortedKeys()
	var out []data.Pair
	for _, k := range keys {
		ids := b[k]
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				p := data.NewPair(ids[i], ids[j])
				if !seen[p] {
					seen[p] = true
					out = append(out, p)
				}
			}
		}
	}
	return out
}

func refStandard(records []*data.Record, key KeyFunc, maxBlock int) []data.Pair {
	return refPairs(refBuildBlocks(records, key).purge(maxBlock))
}

type refEdge struct {
	p data.Pair
	w float64
}

func refMetaCandidates(mb MetaBlocker, blocks refBlocks) []data.Pair {
	blockOf := map[string][]string{}
	for _, k := range blocks.sortedKeys() {
		for _, id := range blocks[k] {
			blockOf[id] = append(blockOf[id], k)
		}
	}
	common := map[data.Pair]int{}
	for _, k := range blocks.sortedKeys() {
		ids := blocks[k]
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				common[data.NewPair(ids[i], ids[j])]++
			}
		}
	}
	edges := make([]refEdge, 0, len(common))
	for p, c := range common {
		var w float64
		switch mb.Weight {
		case CBS:
			w = float64(c)
		case ECBS:
			nBlocks := float64(len(blocks))
			w = float64(c) *
				math.Log(nBlocks/float64(len(blockOf[p.A]))) *
				math.Log(nBlocks/float64(len(blockOf[p.B])))
		case JS:
			union := len(blockOf[p.A]) + len(blockOf[p.B]) - c
			if union > 0 {
				w = float64(c) / float64(union)
			}
		}
		edges = append(edges, refEdge{p: p, w: w})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].w != edges[j].w {
			return edges[i].w > edges[j].w
		}
		if edges[i].p.A != edges[j].p.A {
			return edges[i].p.A < edges[j].p.A
		}
		return edges[i].p.B < edges[j].p.B
	})
	switch mb.Prune {
	case WEP:
		return refPruneWEP(edges)
	case CEP:
		k := 0
		for _, ids := range blocks {
			k += len(ids)
		}
		k /= 2
		if k < 1 {
			k = 1
		}
		if k > len(edges) {
			k = len(edges)
		}
		out := make([]data.Pair, 0, k)
		for _, e := range edges[:k] {
			out = append(out, e.p)
		}
		return out
	case WNP:
		return refPruneWNP(edges)
	}
	return nil
}

func refPruneWEP(edges []refEdge) []data.Pair {
	if len(edges) == 0 {
		return nil
	}
	var sum float64
	for _, e := range edges {
		sum += e.w
	}
	mean := sum / float64(len(edges))
	var out []data.Pair
	for _, e := range edges {
		if e.w > mean {
			out = append(out, e.p)
		}
	}
	return out
}

func refPruneWNP(edges []refEdge) []data.Pair {
	sum := map[string]float64{}
	deg := map[string]int{}
	for _, e := range edges {
		sum[e.p.A] += e.w
		sum[e.p.B] += e.w
		deg[e.p.A]++
		deg[e.p.B]++
	}
	mean := func(id string) float64 {
		if deg[id] == 0 {
			return 0
		}
		return sum[id] / float64(deg[id])
	}
	var out []data.Pair
	for _, e := range edges {
		if e.w >= mean(e.p.A) || e.w >= mean(e.p.B) {
			out = append(out, e.p)
		}
	}
	return out
}

func refSortedNeighborhood(records []*data.Record, keys []KeyFunc, window int) []data.Pair {
	w := window
	if w < 2 {
		w = 5
	}
	seen := map[data.Pair]bool{}
	var out []data.Pair
	for _, key := range keys {
		type entry struct{ k, id string }
		entries := make([]entry, 0, len(records))
		for _, r := range records {
			ks := key(r)
			if len(ks) == 0 || ks[0] == "" {
				continue
			}
			entries = append(entries, entry{k: ks[0], id: r.ID})
		}
		sort.Slice(entries, func(i, j int) bool {
			if entries[i].k != entries[j].k {
				return entries[i].k < entries[j].k
			}
			return entries[i].id < entries[j].id
		})
		for i := range entries {
			for j := i + 1; j < len(entries) && j < i+w; j++ {
				p := data.NewPair(entries[i].id, entries[j].id)
				if !seen[p] {
					seen[p] = true
					out = append(out, p)
				}
			}
		}
	}
	return out
}

func refProgressiveStream(records []*data.Record, key KeyFunc, maxBlock int) []data.Pair {
	blocks := refBuildBlocks(records, key)
	type blockEntry struct {
		key string
		ids []string
	}
	entries := make([]blockEntry, 0, len(blocks))
	for k, ids := range blocks {
		if len(ids) < 2 {
			continue
		}
		if maxBlock > 0 && len(ids) > maxBlock {
			continue
		}
		entries = append(entries, blockEntry{key: k, ids: ids})
	}
	sort.Slice(entries, func(i, j int) bool {
		if len(entries[i].ids) != len(entries[j].ids) {
			return len(entries[i].ids) < len(entries[j].ids)
		}
		return entries[i].key < entries[j].key
	})
	seen := map[data.Pair]bool{}
	var out []data.Pair
	for _, e := range entries {
		for i := 0; i < len(e.ids); i++ {
			for j := i + 1; j < len(e.ids); j++ {
				pair := data.NewPair(e.ids[i], e.ids[j])
				if !seen[pair] {
					seen[pair] = true
					out = append(out, pair)
				}
			}
		}
	}
	return out
}

func refCanopy(c Canopy, records []*data.Record) []data.Pair {
	remaining := append([]*data.Record(nil), records...)
	seen := map[data.Pair]bool{}
	var out []data.Pair
	for len(remaining) > 0 {
		center := remaining[0]
		canopy := []*data.Record{center}
		var next []*data.Record
		for _, r := range remaining[1:] {
			s := c.Sim(center, r)
			if s >= c.Loose {
				canopy = append(canopy, r)
			}
			if s < c.Tight {
				next = append(next, r)
			}
		}
		remaining = next
		for i := 0; i < len(canopy); i++ {
			for j := i + 1; j < len(canopy); j++ {
				p := data.NewPair(canopy[i].ID, canopy[j].ID)
				if !seen[p] {
					seen[p] = true
					out = append(out, p)
				}
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------
// Workload: a deterministic noisy-product corpus with heavy token
// overlap, a sprinkle of shared identifiers and missing values.
// ---------------------------------------------------------------------

var detWords = []string{
	"acme", "ultra", "pro", "max", "mini", "camera", "lens", "tripod",
	"battery", "charger", "digital", "compact", "zoom", "kit", "black",
	"silver", "edition", "hd", "wireless", "flash",
}

// detRecords builds n records from a fixed linear-congruential stream,
// so every run and every worker count sees the same corpus. IDs are
// deliberately NOT in input order (r%7 shuffle digit) to exercise the
// rank/ID-order distinction.
func detRecords(n int) []*data.Record {
	lcg := uint64(88172645463325252)
	next := func(m int) int {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return int((lcg >> 33) % uint64(m))
	}
	recs := make([]*data.Record, 0, n)
	for i := 0; i < n; i++ {
		title := ""
		for w := 0; w < 3+next(4); w++ {
			if w > 0 {
				title += " "
			}
			title += detWords[next(len(detWords))]
		}
		id := fmt.Sprintf("s%d-r%04d", next(7), i)
		r := data.NewRecord(id, fmt.Sprintf("src%d", next(5))).Set("title", data.String(title))
		if next(3) == 0 {
			r.Set("pid", data.String(fmt.Sprintf("P%03d", next(n/4+1))))
		}
		if next(4) != 0 {
			r.Set("brand", data.String(detWords[next(6)]))
		}
		recs = append(recs, r)
	}
	return recs
}

var workerCounts = []int{1, 2, 8}

func samePairs(t *testing.T, name string, want, got []data.Pair) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: got %d pairs, want %d", name, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: pair %d = %v, want %v", name, i, got[i], want[i])
		}
	}
}

// ---------------------------------------------------------------------
// Regression tests: engine output vs the seed reference, at 1/2/8
// workers, for every blocker.
// ---------------------------------------------------------------------

func TestEngineStandardMatchesSeed(t *testing.T) {
	recs := detRecords(300)
	keys := map[string]KeyFunc{
		"token":  TokenKey("title"),
		"prefix": AttrPrefixKey("title", 4),
		"exact":  AttrExactKey("pid"),
		"qgram":  QGramKey("title", 3),
		"suffix": SuffixKey("brand", 3),
		"all":    AllTokensKey(),
	}
	for name, key := range keys {
		for _, max := range []int{0, 40} {
			want := refStandard(recs, key, max)
			for _, w := range workerCounts {
				got := candidatesOf(t, Standard{Key: key, MaxBlock: max}, recs, Opts{Workers: w})
				samePairs(t, fmt.Sprintf("%s max=%d workers=%d", name, max, w), want, got)
			}
		}
	}
}

func TestEngineBlocksMatchSeedBlocks(t *testing.T) {
	recs := detRecords(250)
	key := TokenKey("title")
	want := refBuildBlocks(recs, key)
	for _, w := range workerCounts {
		got := blocksOf(NewEngineOpts(recs, Opts{Workers: w}).Blocks(key))
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d blocks, want %d", w, len(got), len(want))
		}
		for k, ids := range want {
			g := got[k]
			if len(g) != len(ids) {
				t.Fatalf("workers=%d block %q: %v, want %v", w, k, g, ids)
			}
			for i := range ids {
				if g[i] != ids[i] {
					t.Fatalf("workers=%d block %q member %d: %q, want %q", w, k, i, g[i], ids[i])
				}
			}
		}
	}
}

func TestEngineMetaBlockingMatchesSeed(t *testing.T) {
	recs := detRecords(250)
	blocks := refBuildBlocks(recs, TokenKey("title")).purge(60)
	for _, weight := range []WeightScheme{CBS, ECBS, JS} {
		for _, prune := range []PruneScheme{WEP, CEP, WNP} {
			want := refMetaCandidates(MetaBlocker{Weight: weight, Prune: prune}, blocks)
			for _, w := range workerCounts {
				mb := MetaBlocker{Weight: weight, Prune: prune}
				// The engine-built collection's ID table spans all
				// records, not only the blocked ones.
				idx := NewEngineOpts(recs, Opts{Workers: w}).Blocks(TokenKey("title")).Purge(60)
				got := mb.Pruned(idx).Pairs()
				samePairs(t, fmt.Sprintf("weight=%d prune=%d workers=%d", weight, prune, w), want, got)
			}
		}
	}
}

func TestEngineSortedNeighborhoodMatchesSeed(t *testing.T) {
	recs := detRecords(300)
	keys := []KeyFunc{AttrPrefixKey("title", 5), AttrExactKey("brand")}
	for _, window := range []int{0, 3, 7} {
		want := refSortedNeighborhood(recs, keys, window)
		for _, w := range workerCounts {
			got := candidatesOf(t, SortedNeighborhood{Keys: keys, Window: window}, recs, Opts{Workers: w})
			samePairs(t, fmt.Sprintf("window=%d workers=%d", window, w), want, got)
		}
	}
}

func TestEngineProgressiveMatchesSeed(t *testing.T) {
	recs := detRecords(300)
	key := TokenKey("title")
	for _, max := range []int{0, 30} {
		want := refProgressiveStream(recs, key, max)
		for _, w := range workerCounts {
			got := rankedOf(t, Standard{Key: key, MaxBlock: max}, recs, Opts{Workers: w})
			samePairs(t, fmt.Sprintf("max=%d workers=%d", max, w), want, got)
		}
	}
}

func TestEngineCanopyMatchesSeed(t *testing.T) {
	recs := detRecords(150)
	sim := func(a, b *data.Record) float64 {
		ta, tb := a.Get("title").String(), b.Get("title").String()
		if len(ta) == 0 || len(tb) == 0 {
			return 0
		}
		if ta[0] == tb[0] {
			return 0.9
		}
		return 0.1
	}
	c := Canopy{Sim: sim, Loose: 0.5, Tight: 0.8}
	want := refCanopy(c, recs)
	got := candidatesOf(t, c, recs, Opts{})
	samePairs(t, "canopy", want, got)
}

// MinHash: the seed implementation iterated a Go map, so its ORDER was
// never deterministic — the engine's canonical order is checked for
// worker-independence, and the SET is checked against the seed.
func TestEngineMinHashCanonicalAndSetMatchesSeed(t *testing.T) {
	recs := detRecords(250)
	m := MinHashLSH{Bands: 6, Rows: 3, Seed: 7}
	base := candidatesOf(t, m, recs, Opts{Workers: 1})
	for _, w := range workerCounts[1:] {
		samePairs(t, fmt.Sprintf("minhash workers=%d", w), base, candidatesOf(t, m, recs, Opts{Workers: w}))
	}
	seedSet := pairSet(refMinHash(m, recs))
	gotSet := pairSet(base)
	if len(seedSet) != len(gotSet) {
		t.Fatalf("minhash set: %d pairs, want %d", len(gotSet), len(seedSet))
	}
	for p := range seedSet {
		if !gotSet[p] {
			t.Fatalf("minhash set: missing %v", p)
		}
	}
}

// refMinHash reproduces the seed bucket expansion (order irrelevant —
// only the set is compared).
func refMinHash(m MinHashLSH, records []*data.Record) []data.Pair {
	attrs, bands, rows := m.params()
	n := bands * rows
	eng := NewEngineOpts(records, Opts{Workers: 1})
	buckets := map[uint64][]uint32{}
	for i, r := range records {
		sig := m.signature(r, attrs, n)
		if sig == nil {
			continue
		}
		for b := 0; b < bands; b++ {
			key := bandHash(b, sig[b*rows:(b+1)*rows])
			buckets[key] = append(buckets[key], eng.ranks[i])
		}
	}
	seen := map[data.Pair]bool{}
	var out []data.Pair
	for _, ids := range buckets {
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				c := pairCode(ids[i], ids[j])
				p := data.Pair{A: eng.rk.ids[c>>32], B: eng.rk.ids[c&0xffffffff]}
				if !seen[p] {
					seen[p] = true
					out = append(out, p)
				}
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------
// Streaming, union and allocation behaviour.
// ---------------------------------------------------------------------

// TestUnionCandidatesMatchesAppendDedup: the union of a token and an
// identifier pass, and the one concatenated pass that replaces it in
// the pipeline — in memory or spilled, at every worker and shard count
// — equal the seed semantics: append the pair slices, keep first seen.
func TestUnionCandidatesMatchesAppendDedup(t *testing.T) {
	recs := detRecords(200)
	eng := NewEngineOpts(recs, Opts{Workers: 4})
	token := eng.Blocks(TokenKey("title")).Purge(50).CandidateSet()
	id := eng.Blocks(AttrExactKey("pid")).CandidateSet()

	var want []data.Pair
	want = append(want, token.Pairs()...)
	want = append(want, id.Pairs()...)
	seen := map[data.Pair]bool{}
	dedup := want[:0:0]
	for _, p := range want {
		if !seen[p] {
			seen[p] = true
			dedup = append(dedup, p)
		}
	}
	samePairs(t, "union", dedup, eng.Union(token, id).Pairs())

	for _, budget := range []int64{0, 1 << 10} {
		for _, w := range workerCounts {
			for _, s := range shardCounts {
				e := NewEngineOpts(recs, Opts{Workers: w, Shards: s, PairMemBudget: budget, SpillDir: t.TempDir()})
				cs := e.Concat(e.Blocks(TokenKey("title")).Purge(50), e.Blocks(AttrExactKey("pid"))).CandidateSet()
				name := fmt.Sprintf("concat budget=%d workers=%d shards=%d", budget, w, s)
				if cs.Spilled() != (budget > 0) {
					t.Fatalf("%s: Spilled() = %v", name, cs.Spilled())
				}
				samePairs(t, name, dedup, cs.Pairs())
				if err := cs.Close(); err != nil {
					t.Fatalf("%s: Close: %v", name, err)
				}
			}
		}
	}
}

// TestCrossEngineOperandsRejected: collections of two engines share no
// rank space, so Concat poisons the engine instead of decoding codes
// against the wrong ID table (Union's foreign-set case is in
// TestBlockingNeverPanics).
func TestCrossEngineOperandsRejected(t *testing.T) {
	recs := detRecords(100)
	a := NewEngineOpts(recs, Opts{Workers: 2})
	b := NewEngineOpts(recs[:80], Opts{Workers: 2})
	if n := a.Concat(a.Blocks(TokenKey("title")), b.Blocks(AttrExactKey("pid"))).NumBlocks(); n != 0 {
		t.Fatalf("cross-engine Concat kept %d blocks", n)
	}
	if a.Err() == nil {
		t.Fatal("cross-engine Concat left no error on the engine")
	}
}

func TestEmitPairsOrderAndEarlyStop(t *testing.T) {
	recs := detRecords(120)
	cs := NewEngineOpts(recs, Opts{Workers: 2}).Blocks(TokenKey("title")).Purge(40).CandidateSet()
	want := cs.Pairs()
	var got []data.Pair
	cs.EmitPairs(func(p data.Pair) bool {
		got = append(got, p)
		return true
	})
	samePairs(t, "emit order", want, got)

	stopAt := len(want) / 2
	n := 0
	cs.EmitPairs(func(p data.Pair) bool {
		n++
		return n < stopAt
	})
	if n != stopAt {
		t.Fatalf("early stop after %d emissions, want %d", n, stopAt)
	}
}

// TestCandidateSetRecordIDs pins the IDs contract: IDs is the engine's
// ascending, distinct rank table (a superset of the IDs the pairs
// reference), and every code EmitCodes streams decodes through it to
// the pair Pairs lists at the same position.
func TestCandidateSetRecordIDs(t *testing.T) {
	recs := detRecords(100)
	cs := NewEngineOpts(recs, Opts{Workers: 2}).Blocks(AttrExactKey("pid")).CandidateSet()
	ids := cs.IDs()
	if !sort.StringsAreSorted(ids) || len(slices.Compact(slices.Clone(ids))) != len(ids) {
		t.Fatalf("IDs not ascending and distinct: %v", ids)
	}
	if len(ids) != len(recs) {
		t.Fatalf("IDs has %d ids, the engine %d records", len(ids), len(recs))
	}
	pairs := cs.Pairs()
	if len(pairs) == 0 {
		t.Fatal("no candidate pairs")
	}
	i := 0
	if err := cs.EmitCodes(func(code uint64) bool {
		got := data.Pair{A: ids[code>>32], B: ids[uint32(code)]}
		if got != pairs[i] {
			t.Fatalf("code %d decodes to %v, Pairs has %v", i, got, pairs[i])
		}
		i++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if i != len(pairs) {
		t.Fatalf("EmitCodes streamed %d codes, Pairs has %d", i, len(pairs))
	}
}

// Dedup allocations must not scale with the number of pairs: the packed
// path allocates a constant number of slices, never a map entry per
// pair.
func TestDedupAllocsDoNotScaleWithPairs(t *testing.T) {
	countAllocs := func(n int) float64 {
		codes := make([]uint64, n)
		lcg := uint64(12345)
		for i := range codes {
			lcg = lcg*6364136223846793005 + 1442695040888963407
			codes[i] = pairCode(uint32((lcg>>33)%500), uint32((lcg>>43)%500))
		}
		buf := make([]uint64, n)
		return testing.AllocsPerRun(5, func() {
			copy(buf, codes)
			dedupCodesStable(buf)
		})
	}
	small, large := countAllocs(1_000), countAllocs(20_000)
	if large > small+2 {
		t.Fatalf("dedup allocations scale with input: %0.0f at 1k vs %0.0f at 20k", small, large)
	}
}

// TestEngineErrWithoutContext: an engine built without a context still
// reports a nil key and a panicking key function through Err — the
// chain degrades to empty results instead of crashing.
func TestEngineErrWithoutContext(t *testing.T) {
	recs := detRecords(50)
	e := NewEngineOpts(recs, Opts{Workers: 2})
	if cs := e.Blocks(nil).Purge(10).CandidateSet(); cs.Len() != 0 {
		t.Fatalf("nil key produced %d pairs", cs.Len())
	}
	if err := e.Err(); !errors.Is(err, ErrNilKey) {
		t.Fatalf("Err = %v, want ErrNilKey", err)
	}

	e = NewEngineOpts(recs, Opts{Workers: 2})
	cs := e.Blocks(func(*data.Record) []string { panic("boom") }).CandidateSet()
	if err := e.Err(); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Err = %v, want the recovered worker panic", err)
	}
	if cs.Len() != 0 {
		t.Fatalf("poisoned engine produced %d pairs", cs.Len())
	}
	// The first error sticks; later passes are no-ops.
	if n := e.Blocks(TokenKey("title")).NumBlocks(); n != 0 {
		t.Fatalf("poisoned engine built %d blocks", n)
	}
}

// TestBlockingNeverPanics: every pass over an engine — each technique's
// Candidates and Ranked, FuseRanked, MetaBlocker.Pruned and Union —
// reports a nil key and a cancelled context through Engine.Err with an
// empty set instead of panicking, and a foreign set given to Union
// poisons the engine.
func TestBlockingNeverPanics(t *testing.T) {
	recs := detRecords(60)
	title := TokenKey("title")
	sim := func(a, b *data.Record) float64 {
		return float64(len(a.Get("title").String())%3) / 2
	}
	// Each pass takes the key under test (nil or title). MinHash-LSH
	// has no key function: it runs after a block pass on the same key,
	// so a nil key elsewhere on the engine must still empty its set.
	passes := []struct {
		name string
		run  func(e *Engine, key KeyFunc) *CandidateSet
	}{
		{"Standard.Candidates", func(e *Engine, key KeyFunc) *CandidateSet { return Standard{Key: key}.Candidates(e) }},
		{"Standard.Ranked", func(e *Engine, key KeyFunc) *CandidateSet { return Standard{Key: key}.Ranked(e) }},
		{"SortedNeighborhood.Candidates", func(e *Engine, key KeyFunc) *CandidateSet {
			return SortedNeighborhood{Keys: []KeyFunc{title, key}}.Candidates(e)
		}},
		{"SortedNeighborhood.Ranked", func(e *Engine, key KeyFunc) *CandidateSet {
			return SortedNeighborhood{Keys: []KeyFunc{title, key}}.Ranked(e)
		}},
		{"MinHashLSH.Candidates", func(e *Engine, key KeyFunc) *CandidateSet {
			e.Blocks(key)
			return MinHashLSH{}.Candidates(e)
		}},
		{"MinHashLSH.Ranked", func(e *Engine, key KeyFunc) *CandidateSet {
			e.Blocks(key)
			return MinHashLSH{}.Ranked(e)
		}},
		{"Canopy.Candidates", func(e *Engine, key KeyFunc) *CandidateSet {
			c := Canopy{Loose: 0.4, Tight: 0.9}
			if key != nil {
				c.Sim = sim
			}
			return c.Candidates(e)
		}},
		{"FuseRanked", func(e *Engine, key KeyFunc) *CandidateSet {
			return e.FuseRanked(0, MinHashLSH{}, Standard{Key: key})
		}},
		{"MetaBlocker.Pruned", func(e *Engine, key KeyFunc) *CandidateSet {
			return MetaBlocker{}.Pruned(e.Blocks(key))
		}},
		{"Engine.Union", func(e *Engine, key KeyFunc) *CandidateSet {
			return e.Union(e.Blocks(title).CandidateSet(), Standard{Key: key}.Candidates(e))
		}},
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, p := range passes {
		e := NewEngineOpts(recs, Opts{})
		if cs := p.run(e, title); e.Err() != nil || cs.Len() == 0 {
			t.Fatalf("%s: healthy engine gave %d pairs, Err = %v", p.name, cs.Len(), e.Err())
		}
		e = NewEngineOpts(recs, Opts{})
		if cs := p.run(e, nil); cs.Len() != 0 || !errors.Is(e.Err(), ErrNilKey) {
			t.Errorf("%s: nil key gave %d pairs, Err = %v; want none and ErrNilKey", p.name, cs.Len(), e.Err())
		}
		e = NewEngineOpts(recs, Opts{Ctx: cancelled})
		if cs := p.run(e, title); cs.Len() != 0 || !errors.Is(e.Err(), context.Canceled) {
			t.Errorf("%s: cancelled context gave %d pairs, Err = %v; want none and context.Canceled", p.name, cs.Len(), e.Err())
		}
	}

	e := NewEngineOpts(recs, Opts{})
	foreign := NewEngineOpts(recs, Opts{}).Blocks(title).CandidateSet()
	if cs := e.Union(e.Blocks(title).CandidateSet(), foreign); cs.Len() != 0 || e.Err() == nil {
		t.Fatalf("Union with a foreign set gave %d pairs, Err = %v; want none and an error", cs.Len(), e.Err())
	}
	if n := e.Blocks(title).NumBlocks(); n != 0 {
		t.Fatalf("engine poisoned by a foreign set still built %d blocks", n)
	}
}

// TestNewRankerRepeatedIDs pins the one-sort ranker against the sorted
// distinct IDs and a binary search per ID, on IDs with repeats.
func TestNewRankerRepeatedIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 2, 17, 5000} {
		ids := make([]string, n)
		for i := range ids {
			ids[i] = fmt.Sprintf("s%d-r%d", rng.Intn(4), rng.Intn(n/2+1))
		}
		rk, ranks := newRanker(ids)
		want := slices.Clone(ids)
		slices.Sort(want)
		want = slices.Compact(want)
		if !slices.Equal(rk.ids, want) {
			t.Fatalf("n=%d: rank table %v, want %v", n, rk.ids, want)
		}
		if len(ranks) != n {
			t.Fatalf("n=%d: %d ranks", n, len(ranks))
		}
		for i, id := range ids {
			if r, _ := slices.BinarySearch(want, id); ranks[i] != uint32(r) {
				t.Fatalf("n=%d: %s at %d ranks %d, want %d", n, id, i, ranks[i], r)
			}
		}
	}
}
