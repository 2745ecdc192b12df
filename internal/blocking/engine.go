package blocking

// The interned, parallel blocking engine. Record IDs are interned to
// dense uint32 ranks assigned in lexicographic order, blocks become
// []uint32 rows, and candidate pairs travel as packed uint64 codes
// (the smaller rank in the high word, so code order is pair order and
// code equality is pair equality). Deduplication sorts and compacts
// the code slice instead of probing a map[data.Pair]bool — no per-pair
// heap allocations — while a position tag preserves the sequential
// implementation's first-seen emission order, keeping every candidate
// list byte-identical to the seed path at any worker count.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"

	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// ErrNilKey reports a blocking pass configured without a key function.
var ErrNilKey = errors.New("blocking: nil key function")

// errSink collects the first error raised along an engine's chain of
// derived operations (Blocks → Purge → CandidateSet → meta-blocking).
// Those methods return values, not errors — bufio.Writer-style, the
// chain keeps running as cheap no-ops once poisoned and the caller
// reads the sticky error from Engine.Err at the end.
type errSink struct{ err error }

// check records err (the first one sticks) and reports whether there
// was one.
func (s *errSink) check(err error) bool {
	if err == nil {
		return false
	}
	if s.err == nil {
		s.err = err
	}
	return true
}

func (s *errSink) failed() bool { return s.err != nil }

// must re-raises a recorded error at an API boundary that has no error
// return (the Blocker interface, map-form Blocks). Those boundaries run
// without a context, so what reaches them is a programming fault (a
// nil key, a recovered worker panic) or, for a budgeted Progressive, a
// spill I/O failure — callers that must handle those use the engine and
// its Err directly.
func (s *errSink) must() {
	if s.err != nil {
		panic(s.err)
	}
}

// ranker maps record IDs to dense uint32 ranks in lexicographic order,
// so rank comparisons agree with data.Pair's canonical ID ordering.
type ranker struct {
	ids []string // rank → ID, sorted ascending, distinct
}

func newRanker(ids []string) *ranker {
	sorted := slices.Clone(ids)
	slices.Sort(sorted)
	return &ranker{ids: slices.Compact(sorted)}
}

// rank returns the dense rank of id (which must be present).
func (rk *ranker) rank(id string) uint32 {
	i, _ := slices.BinarySearch(rk.ids, id)
	return uint32(i)
}

// pairCode packs two record ranks into one uint64 with the smaller
// rank in the high word: equal codes are equal pairs, and ascending
// codes are pairs in ascending (A, B) order.
func pairCode(a, b uint32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// dedupCodesStable removes duplicate codes preserving first-occurrence
// order: it sorts a copy to learn the distinct code set, then sweeps
// the original once, keeping each code the first time its slot in the
// sorted set is hit. One clone, one uint64 sort, one bool slice — the
// inner loop never touches the heap per pair. When deduplication
// shrinks the slice past 2× its backing array, the result is
// right-sized: long-lived candidate sets and spilled runs must not pin
// an oversized raw-code array for their whole lifetime.
func dedupCodesStable(codes []uint64) []uint64 {
	if len(codes) < 2 {
		return codes
	}
	uniq := slices.Clone(codes)
	slices.Sort(uniq)
	uniq = slices.Compact(uniq)
	if len(uniq) == len(codes) {
		return codes // already distinct
	}
	seen := make([]bool, len(uniq))
	out := codes[:0]
	for _, c := range codes {
		i, _ := slices.BinarySearch(uniq, c)
		if !seen[i] {
			seen[i] = true
			out = append(out, c)
		}
	}
	if cap(out) >= 2*len(out) {
		out = slices.Clone(out)
	}
	return out
}

// Opts configures an engine beyond the worker count: the shard count
// for block building and pair generation, and the pair-memory budget
// past which pair generation spills sorted runs to temp files. Every
// combination produces byte-identical candidate output; the knobs only
// trade memory and parallelism.
type Opts struct {
	// Workers bounds the parallel passes (0 = NumCPU).
	Workers int
	// Shards splits block building and pair generation into this many
	// data shards (<= 1 means one shard per worker for block building
	// and unsharded pair generation). The shard plan depends only on
	// the data and this count, never on Workers.
	Shards int
	// PairMemBudget, when > 0, bounds the bytes of packed pair codes
	// held in RAM during candidate generation. A pass whose raw pair
	// codes would exceed it spills sorted runs of (code, position)
	// entries to temp files and streams the deduplicated result back
	// through a k-way loser-tree merge. It bounds pair codes only: the
	// records, the ID interning tables and the block index stay
	// resident, as do the caller's feature index and matched edges.
	PairMemBudget int64
	// SpillDir is the directory for spill runs ("" = os.TempDir()).
	SpillDir string
	// Obs records "blocking." metrics (nil falls back to obs.Default).
	Obs *obs.Registry
	// Ctx cancels the parallel passes at chunk boundaries (nil never
	// cancels); the cancellation is reported by Err.
	Ctx context.Context
}

// Engine shares one record-ID interning across several blocking passes
// over the same records, so the resulting candidate sets live in one
// rank space and can be unioned on packed codes.
type Engine struct {
	cfg    parallel.Config
	recs   []*data.Record
	rk     *ranker
	ranks  []uint32 // record position → rank
	sink   *errSink // first error of the engine and everything derived from it
	shards int      // pair-generation shard count (<=1 = unsharded)
	budget int64    // pair-memory budget in bytes (0 = unlimited)
	dir    string   // spill directory ("" = os.TempDir())
}

// NewEngineOpts interns the record IDs once (in parallel) and returns
// an engine bound to the records: sharded block building and pair
// generation, an optional pair-memory budget with disk spill, metrics
// and cancellation. The engine and every Indexed/CandidateSet derived
// from it record "blocking." counters (blocks built/purged, raw vs
// emitted pairs, dedup ratio) into Opts.Obs.
//
// Nothing derived from the engine returns an error or panics on one:
// any error (cancellation, worker panic, nil key) sticks to the engine,
// derived operations degrade to cheap no-ops, and the caller reads the
// first error from Err after the chain.
func NewEngineOpts(records []*data.Record, o Opts) *Engine {
	e := &Engine{
		cfg:    parallel.Config{Workers: o.Workers, Obs: obs.OrDefault(o.Obs), Ctx: o.Ctx},
		recs:   records,
		sink:   &errSink{},
		shards: o.Shards,
		budget: o.PairMemBudget,
		dir:    o.SpillDir,
	}
	ids := make([]string, len(records))
	for i, r := range records {
		ids[i] = r.ID
	}
	e.rk = newRanker(ids)
	var err error
	e.ranks, err = parallel.MapSlice(e.cfg, records, func(r *data.Record) uint32 {
		return e.rk.rank(r.ID)
	})
	e.sink.check(err)
	return e
}

// Err returns the first error recorded by this engine or anything
// derived from it.
func (e *Engine) Err() error { return e.sink.err }

// empty returns the poisoned/empty index carrying the engine's
// configuration, the return value of every failed derivation.
func (e *Engine) empty() *Indexed {
	return &Indexed{cfg: e.cfg, sink: e.sink, ids: e.rk.ids, shards: e.shards, budget: e.budget, dir: e.dir}
}

// Blocks applies key to every record — the expensive tokenisation runs
// sharded over contiguous input ranges — and merges the shard maps
// deterministically into an interned block collection. Concatenating a
// key's shard rows in shard order preserves record input order within
// every block; keys are sorted, exactly matching the sequential
// BuildBlocks semantics, so the result is byte-identical for any
// worker or shard count. The shard count defaults to the worker count;
// Opts.Shards fixes it independently of the pool size.
func (e *Engine) Blocks(key KeyFunc) *Indexed {
	if e.sink.failed() {
		return e.empty()
	}
	if key == nil {
		e.sink.check(fmt.Errorf("blocking: engine pass: %w", ErrNilKey))
		return e.empty()
	}
	n := len(e.recs)
	w := e.cfg.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	s := e.shards
	if s <= 1 {
		s = w
	}
	if s > n {
		s = n
	}
	if s < 1 {
		s = 1
	}
	shards := make([]map[string][]uint32, s)
	err := parallel.ForEach(parallel.Config{Workers: w, Ctx: e.cfg.Ctx}, s, func(si int) {
		lo, hi := n*si/s, n*(si+1)/s
		m := make(map[string][]uint32)
		var ks keySet
		for i := lo; i < hi; i++ {
			ks.reset()
			for _, k := range key(e.recs[i]) {
				if k == "" || !ks.add(k) {
					continue
				}
				m[k] = append(m[k], e.ranks[i])
			}
		}
		shards[si] = m
	})
	if e.sink.check(err) {
		return e.empty()
	}
	total := 0
	for _, m := range shards {
		total += len(m)
	}
	keys := make([]string, 0, total)
	for _, m := range shards {
		for k := range m {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	rows := make([][]uint32, len(keys))
	if s == 1 {
		for i, k := range keys {
			rows[i] = shards[0][k]
		}
	} else {
		err := parallel.ForEach(e.cfg, len(keys), func(i int) {
			k := keys[i]
			sz := 0
			for _, m := range shards {
				sz += len(m[k])
			}
			row := make([]uint32, 0, sz)
			for _, m := range shards {
				row = append(row, m[k]...)
			}
			rows[i] = row
		})
		if e.sink.check(err) {
			return e.empty()
		}
	}
	e.cfg.Obs.Counter("blocking.blocks_built").Add(int64(len(keys)))
	x := e.empty()
	x.keys, x.rows = keys, rows
	return x
}

// Indexed is the interned form of a block collection: record IDs are
// dense lexicographic ranks, block keys are sorted, and each row holds
// the member ranks in record input order.
type Indexed struct {
	cfg    parallel.Config
	sink   *errSink   // shared with the engine (standalone indexes own theirs)
	ids    []string   // rank → record ID, sorted ascending
	keys   []string   // sorted block keys
	rows   [][]uint32 // rows[i] = member ranks of keys[i], input order
	shards int        // pair-generation shard count (<=1 = unsharded)
	budget int64      // pair-memory budget in bytes (0 = unlimited)
	dir    string     // spill directory ("" = os.TempDir())
}

// Index interns a map-form block collection. Within-block order is
// preserved; keys are sorted once (meta-blocking reuses this ordering
// instead of re-sorting the key set per pass).
func (b Blocks) Index() *Indexed {
	keys := b.sortedKeys()
	total := 0
	for _, ids := range b {
		total += len(ids)
	}
	all := make([]string, 0, total)
	for _, ids := range b {
		all = append(all, ids...)
	}
	rk := newRanker(all)
	x := &Indexed{sink: &errSink{}, ids: rk.ids, keys: keys, rows: make([][]uint32, len(keys))}
	for i, k := range keys {
		src := b[k]
		row := make([]uint32, len(src))
		for j, id := range src {
			row[j] = rk.rank(id)
		}
		x.rows[i] = row
	}
	return x
}

// NumBlocks returns the number of blocks.
func (x *Indexed) NumBlocks() int { return len(x.keys) }

// Comparisons counts the total pairwise comparisons implied by the
// blocks, duplicates across blocks included (the meta-blocking cost
// measure).
func (x *Indexed) Comparisons() int {
	n := 0
	for _, row := range x.rows {
		n += len(row) * (len(row) - 1) / 2
	}
	return n
}

// Purge drops blocks larger than maxSize, sharing the ID table with
// the receiver. maxSize <= 0 is a no-op.
func (x *Indexed) Purge(maxSize int) *Indexed {
	if maxSize <= 0 {
		return x
	}
	out := &Indexed{cfg: x.cfg, sink: x.sink, ids: x.ids, shards: x.shards, budget: x.budget, dir: x.dir}
	for i, row := range x.rows {
		if len(row) <= maxSize {
			out.keys = append(out.keys, x.keys[i])
			out.rows = append(out.rows, row)
		}
	}
	x.cfg.Obs.Counter("blocking.blocks_purged").Add(int64(len(x.keys) - len(out.keys)))
	return out
}

// Blocks materialises the map form of the collection.
func (x *Indexed) Blocks() Blocks {
	b := make(Blocks, len(x.keys))
	for i, k := range x.keys {
		ids := make([]string, len(x.rows[i]))
		for j, r := range x.rows[i] {
			ids[j] = x.ids[r]
		}
		b[k] = ids
	}
	return b
}

// pairOffsets prefix-sums the per-block pair counts: offs[i] is the
// raw emission position of block i's first pair in the sequential
// order (sorted keys, in-block input order). The offsets are the shard
// plan for pair generation and the position tags that keep sharded and
// spilled dedup byte-identical to the in-memory sweep.
func (x *Indexed) pairOffsets() []int {
	offs := make([]int, len(x.rows)+1)
	for i, row := range x.rows {
		offs[i+1] = offs[i] + len(row)*(len(row)-1)/2
	}
	return offs
}

// rawCodes packs every in-block pair into one flat code slice in the
// sequential emission order (sorted keys, in-block input order),
// duplicates across blocks retained. Per-block offsets are prefix-
// summed so the fill parallelises with deterministic placement.
func (x *Indexed) rawCodes() []uint64 {
	offs := x.pairOffsets()
	codes := make([]uint64, offs[len(x.rows)])
	err := parallel.ForEach(x.cfg, len(x.rows), func(i int) {
		row := x.rows[i]
		w := offs[i]
		for a := 0; a < len(row); a++ {
			for b := a + 1; b < len(row); b++ {
				codes[w] = pairCode(row[a], row[b])
				w++
			}
		}
	})
	if x.sink.check(err) {
		return nil
	}
	return codes
}

// CandidateSet expands the blocks into the deduplicated packed
// candidate collection, in the exact order Blocks.Pairs emits. Three
// execution strategies produce that byte-identical order: the plain
// in-memory sweep, the sharded in-memory path (Opts.Shards > 1), and —
// when the raw pair codes would exceed Opts.PairMemBudget — external
// generation that spills sorted runs to temp files and streams the
// deduplicated result through k-way loser-tree merges. Spill-backed
// sets must be released with Close.
func (x *Indexed) CandidateSet() *CandidateSet {
	cs := &CandidateSet{ids: x.ids, sink: x.sink}
	if x.sink.failed() {
		return cs
	}
	offs := x.pairOffsets()
	nraw := offs[len(x.rows)]
	switch {
	case x.budget > 0 && int64(nraw)*8 > x.budget:
		cs = x.spillCandidates(offs)
	case x.shards > 1:
		cs.codes = x.shardedCodes(offs)
	default:
		cs.codes = dedupCodesStable(x.rawCodes())
	}
	if x.sink.failed() {
		return &CandidateSet{ids: x.ids, sink: x.sink}
	}
	if reg := x.cfg.Obs; reg != nil {
		rawC := reg.Counter("blocking.pairs_raw")
		rawC.Add(int64(nraw))
		emitC := reg.Counter("blocking.pairs_emitted")
		emitC.Add(int64(cs.Len()))
		// Cumulative ratio across all passes on this registry, so the
		// gauge stays meaningful when a pipeline unions several blockers.
		if tot := rawC.Value(); tot > 0 {
			reg.Gauge("blocking.dedup_ratio").Set(float64(emitC.Value()) / float64(tot))
		}
	}
	return cs
}

// Pairs expands the blocks into deduplicated candidate pairs,
// byte-identical to the sequential map-based implementation.
func (x *Indexed) Pairs() []data.Pair { return x.CandidateSet().Pairs() }

// EmitPairs streams the deduplicated pairs to emit in Pairs order,
// stopping early when emit returns false.
func (x *Indexed) EmitPairs(emit func(data.Pair) bool) { x.CandidateSet().EmitPairs(emit) }

// CandidateSet is a deduplicated candidate-pair collection packed as
// uint64 rank codes over a shared ID table. It supports random access
// (for the parallel matcher) and streaming emission without ever
// materialising a []data.Pair.
//
// A set built under a pair-memory budget is spill-backed: its codes
// live in sorted run files on disk (ext != nil) and only stream
// through EmitPairs/emitCodes; random access via Pair is unavailable
// and Close must be called to release the run files. The codes slice
// then holds the in-memory tail a union appended after the spilled
// stream.
type CandidateSet struct {
	ids   []string
	codes []uint64  // deduplicated pair codes, first-emission order
	ext   *spillSet // non-nil: codes stream from disk, c.codes is the union tail
	sink  *errSink  // error sink for streaming reads; nil only on in-memory unions
}

// Len returns the number of candidate pairs.
func (c *CandidateSet) Len() int {
	if c.ext != nil {
		return c.ext.n + len(c.codes)
	}
	return len(c.codes)
}

// Spilled reports whether the set streams from disk. Spilled sets do
// not support random access via Pair; consume them with EmitPairs (or
// a streaming matcher) and release them with Close.
func (c *CandidateSet) Spilled() bool { return c.ext != nil }

// Close releases the spill run files of a spill-backed set (shared
// files are reference-counted across unions). In-memory sets need no
// Close; calling it is a no-op.
func (c *CandidateSet) Close() error {
	if c.ext == nil {
		return nil
	}
	return c.ext.release()
}

// decode unpacks a code into its pair. The high word holds the smaller
// rank, so A < B lexicographically without a comparison.
func (c *CandidateSet) decode(code uint64) data.Pair {
	return data.Pair{A: c.ids[code>>32], B: c.ids[code&0xffffffff]}
}

// Pair decodes the i-th candidate. Spilled sets have no random access:
// Pair panics on them — use EmitPairs.
func (c *CandidateSet) Pair(i int) data.Pair {
	if c.ext != nil {
		panic("blocking: random access on a spilled candidate set (use EmitPairs)")
	}
	return c.decode(c.codes[i])
}

// emitCodes streams the packed codes in emission order: the spilled
// stream (when present) followed by the in-memory tail.
func (c *CandidateSet) emitCodes(emit func(code uint64) bool) {
	if c.ext != nil {
		stop := false
		err := c.ext.emit(func(code uint64) bool {
			if !emit(code) {
				stop = true
				return false
			}
			return true
		})
		if c.sink.check(err) || stop {
			return
		}
	}
	for _, code := range c.codes {
		if !emit(code) {
			return
		}
	}
}

// Pairs materialises the full pair slice (nil when empty).
func (c *CandidateSet) Pairs() []data.Pair {
	n := c.Len()
	if n == 0 {
		return nil
	}
	out := make([]data.Pair, 0, n)
	c.emitCodes(func(code uint64) bool {
		out = append(out, c.decode(code))
		return true
	})
	return out
}

// EmitPairs streams the candidates to emit in order, stopping early
// when emit returns false.
func (c *CandidateSet) EmitPairs(emit func(data.Pair) bool) {
	c.emitCodes(func(code uint64) bool { return emit(c.decode(code)) })
}

// RecordIDs returns the distinct record IDs referenced by the
// candidates, ascending.
func (c *CandidateSet) RecordIDs() []string {
	seen := make([]bool, len(c.ids))
	c.emitCodes(func(code uint64) bool {
		seen[code>>32] = true
		seen[code&0xffffffff] = true
		return true
	})
	var out []string
	for rank, ok := range seen {
		if ok {
			out = append(out, c.ids[rank])
		}
	}
	return out
}

// UnionCandidates unions candidate sets, deduplicating while
// preserving first-seen order across the concatenation — the packed
// equivalent of appending pair slices and deduplicating through a
// map[data.Pair]bool. Sets built over the same Engine share an ID
// table and merge on codes; mixed tables fall back to re-ranking.
//
// A spilled set in the first position stays on disk: the union keeps
// its streamed prefix and appends only the genuinely new codes of the
// later (in-memory) sets as a tail, so unioning identifier blocking
// into a budgeted token-blocking pass never materialises the spilled
// stream. A spilled set in any later position must be materialised to
// preserve first-seen order and loses its disk backing.
func UnionCandidates(sets ...*CandidateSet) *CandidateSet {
	var nonEmpty []*CandidateSet
	for _, s := range sets {
		if s != nil && s.Len() > 0 {
			nonEmpty = append(nonEmpty, s)
		}
	}
	if len(nonEmpty) == 0 {
		return &CandidateSet{}
	}
	if len(nonEmpty) == 1 {
		return nonEmpty[0]
	}
	shared := true
	for _, s := range nonEmpty[1:] {
		if !sameIDs(nonEmpty[0].ids, s.ids) {
			shared = false
			break
		}
	}
	if !shared {
		return rerankUnion(nonEmpty)
	}
	if base := nonEmpty[0]; base.ext != nil {
		return unionOntoSpilled(base, nonEmpty[1:])
	}
	total := 0
	for _, s := range nonEmpty {
		total += s.Len()
	}
	codes := make([]uint64, 0, total)
	for _, s := range nonEmpty {
		s.emitCodes(func(code uint64) bool {
			codes = append(codes, code)
			return true
		})
	}
	return &CandidateSet{ids: nonEmpty[0].ids, codes: dedupCodesStable(codes)}
}

// unionOntoSpilled unions in-memory sets onto a spill-backed base that
// leads the concatenation: every base code precedes every later code,
// so the result is the untouched spilled stream plus a deduplicated
// in-memory tail of the codes the base does not already contain.
// Membership is decided by one sorted-merge sweep over the base's
// by-code spill stream — the tail never needs the spilled codes in RAM.
func unionOntoSpilled(base *CandidateSet, rest []*CandidateSet) *CandidateSet {
	total := len(base.codes)
	for _, s := range rest {
		total += s.Len()
	}
	tail := make([]uint64, 0, total)
	tail = append(tail, base.codes...)
	for _, s := range rest {
		s.emitCodes(func(code uint64) bool {
			tail = append(tail, code)
			return true
		})
	}
	tail = dedupCodesStable(tail)
	sorted := slices.Clone(tail)
	slices.Sort(sorted)
	inBase := make(map[uint64]bool, len(sorted))
	if err := base.ext.filterSorted(sorted, func(code uint64) { inBase[code] = true }); err != nil {
		base.sink.check(err)
		return &CandidateSet{ids: base.ids, sink: base.sink}
	}
	kept := tail[:0]
	for _, code := range tail {
		if !inBase[code] {
			kept = append(kept, code)
		}
	}
	return &CandidateSet{ids: base.ids, codes: kept, ext: base.ext.retain(), sink: base.sink}
}

// sameIDs reports whether two ID tables are the same slice (the common
// case: both sets came from one Engine).
func sameIDs(a, b []string) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// rerankUnion merges candidate sets with differing ID tables by
// building a combined ranker and re-encoding every pair.
func rerankUnion(sets []*CandidateSet) *CandidateSet {
	var all []string
	for _, s := range sets {
		all = append(all, s.ids...)
	}
	rk := newRanker(all)
	total := 0
	for _, s := range sets {
		total += s.Len()
	}
	codes := make([]uint64, 0, total)
	for _, s := range sets {
		s.EmitPairs(func(p data.Pair) bool {
			codes = append(codes, pairCode(rk.rank(p.A), rk.rank(p.B)))
			return true
		})
	}
	return &CandidateSet{ids: rk.ids, codes: dedupCodesStable(codes)}
}
