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
	"os"
	"runtime"
	"slices"
	"strings"

	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// ErrNilKey reports a blocking pass configured without a key function.
var ErrNilKey = errors.New("blocking: nil key function")

// errSink collects the first error raised along an engine's chain of
// derived operations (Blocks → Purge → CandidateSet → meta-blocking,
// and every technique's pass). Those methods return values, not errors
// — bufio.Writer-style, the chain keeps running as cheap no-ops once
// poisoned and the caller reads the sticky error from Engine.Err at the
// end.
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

// ranker maps record IDs to dense uint32 ranks in lexicographic order,
// so rank comparisons agree with data.Pair's canonical ID ordering.
type ranker struct {
	ids []string // rank → ID, sorted ascending, distinct
}

// rankChunk floors the entries newRanker sorts per chunk, so a small ID
// table is not split into chunks that cost more to merge than to sort.
const rankChunk = 1 << 10

// idPos is one (ID, position) entry of newRanker's sort.
type idPos struct {
	id  string
	pos int
}

// newRanker returns the ranker of ids and the rank of each of them, in
// ids' order. The (ID, position) entries are sorted in one chunk per
// worker, in parallel, and the sorted chunks merged pairwise, also in
// parallel; an ID's rank is its place among the distinct sorted IDs, so
// equal IDs share a rank and the ranks do not depend on the worker
// count. The error is a recovered worker panic.
func newRanker(workers int, ids []string) (*ranker, []uint32, error) {
	cfg := parallel.Config{Workers: workers}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	ents := make([]idPos, len(ids))
	for i, id := range ids {
		ents[i] = idPos{id, i}
	}
	k := max(min(workers, len(ents)/rankChunk), 1)
	bounds := make([]int, k+1) // chunk c is ents[bounds[c]:bounds[c+1]]
	for c := range bounds {
		bounds[c] = len(ents) * c / k
	}
	err := parallel.ForEach(cfg, k, func(c int) {
		slices.SortFunc(ents[bounds[c]:bounds[c+1]], func(a, b idPos) int { return strings.Compare(a.id, b.id) })
	})
	var tmp []idPos
	if k > 1 {
		tmp = make([]idPos, len(ents))
	}
	// Round by round, merge each pair of neighbouring sorted runs of
	// width chunks into tmp; a run without a partner is copied as it is.
	for width := 1; err == nil && width < k; width *= 2 {
		err = parallel.ForEach(cfg, (k+2*width-1)/(2*width), func(j int) {
			lo := bounds[2*j*width]
			mid, hi := bounds[min((2*j+1)*width, k)], bounds[min((2*j+2)*width, k)]
			mergeIDs(tmp[lo:hi], ents[lo:mid], ents[mid:hi])
		})
		ents, tmp = tmp, ents
	}
	if err != nil {
		return &ranker{}, make([]uint32, len(ids)), err
	}
	rk := &ranker{ids: make([]string, 0, len(ids))}
	ranks := make([]uint32, len(ids))
	for _, e := range ents {
		if n := len(rk.ids); n == 0 || rk.ids[n-1] != e.id {
			rk.ids = append(rk.ids, e.id)
		}
		ranks[e.pos] = uint32(len(rk.ids) - 1)
	}
	return rk, ranks, nil
}

// mergeIDs merges the ID-sorted a and b into dst (len(a)+len(b) long).
func mergeIDs(dst, a, b []idPos) {
	i, j := 0, 0
	for w := range dst {
		if j == len(b) || i < len(a) && a[i].id <= b[j].id {
			dst[w] = a[i]
			i++
		} else {
			dst[w] = b[j]
			j++
		}
	}
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
// for block building, rank fusion and spill-run generation, and the
// pair-memory budget past which pair generation spills sorted runs to
// temp files. Every combination produces byte-identical candidate
// output; the knobs only trade memory and parallelism.
type Opts struct {
	// Workers bounds the parallel passes (0 = NumCPU).
	Workers int
	// Shards partitions block building and RRF accumulation (0 = one
	// per worker) and spill-run generation (0 = one); it never changes
	// output and has no effect on an in-memory pair sweep.
	Shards int
	// PairMemBudget, when > 0, bounds the bytes of packed pair codes
	// held in RAM during candidate generation. A pass whose raw pair
	// codes (8 bytes each) would exceed it spills radix-sorted runs of
	// (code, position) entries to temp files, merges them once into
	// deduplicated position buckets, and replays the set from those on
	// every read. Run generation splits the budget across the shards
	// (each running shard also holds a radix scratch of its buffer's
	// size); a replay holds one dense code array of budget/16 slots
	// (half the budget's bytes) plus one presence bit per slot. It bounds
	// pair codes only: the records, the ID interning tables and the
	// block index stay resident, as do the caller's feature index and
	// matched edges.
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
// over the same records, so their block collections live in one rank
// space and can be concatenated into one candidate pass.
type Engine struct {
	cfg    parallel.Config
	recs   []*data.Record
	rk     *ranker
	ranks  []uint32 // record position → rank
	sink   *errSink // first error of the engine and everything derived from it
	shards int      // Opts.Shards
	budget int64    // pair-memory budget in bytes (0 = unlimited)
	dir    string   // spill directory ("" = os.TempDir())
}

// NewEngineOpts interns the record IDs once (in parallel) and returns
// an engine bound to the records: sharded block building, pair
// generation under an optional pair-memory budget with disk spill,
// metrics and cancellation. The engine and every Indexed/CandidateSet
// derived from it record "blocking." counters (blocks built/purged, raw
// vs emitted pairs, dedup ratio) into Opts.Obs.
//
// Nothing derived from the engine returns an error or panics on one:
// any error (cancellation, worker panic, nil key, a set or collection
// of another engine) sticks to the engine, derived operations and
// every technique's pass degrade to cheap no-ops returning empty sets,
// and the caller reads the first error from Err after the chain.
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
	var err error
	e.rk, e.ranks, err = newRanker(o.Workers, ids)
	e.sink.check(err)
	return e
}

// Err returns the first error recorded by this engine or anything
// derived from it.
func (e *Engine) Err() error { return e.sink.err }

// set wraps codes (deduplicated, in emission order) as a candidate set
// of the engine; set(nil) is the empty result of every failed
// derivation.
func (e *Engine) set(codes []uint64) *CandidateSet {
	return &CandidateSet{eng: e, codes: codes}
}

// partitions resolves the shard count of the two passes whose
// partition never shows in their output, block building and RRF
// accumulation: Opts.Shards when > 1, else one per worker.
func (e *Engine) partitions() int {
	if e.shards > 1 {
		return e.shards
	}
	if e.cfg.Workers > 0 {
		return e.cfg.Workers
	}
	return runtime.NumCPU()
}

// Blocks applies key to every record — the expensive tokenisation runs
// sharded over contiguous input ranges — and merges the shard maps
// deterministically into an interned block collection. Within a block,
// ranks appear in record input order (concatenating a key's shard rows
// in shard order preserves it); keys are sorted; empty and repeated
// keys of one record are dropped and a record yielding no key is
// unblocked — byte-identical for any worker or shard count.
func (e *Engine) Blocks(key KeyFunc) *Indexed {
	if e.sink.failed() {
		return &Indexed{eng: e}
	}
	if key == nil {
		e.sink.check(fmt.Errorf("blocking: engine pass: %w", ErrNilKey))
		return &Indexed{eng: e}
	}
	n := len(e.recs)
	s := max(min(e.partitions(), n), 1)
	shards := make([]map[string][]uint32, s)
	err := parallel.ForEach(parallel.Config{Workers: e.cfg.Workers, Ctx: e.cfg.Ctx}, s, func(si int) {
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
		return &Indexed{eng: e}
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
			return &Indexed{eng: e}
		}
	}
	e.cfg.Obs.Counter("blocking.blocks_built").Add(int64(len(keys)))
	return &Indexed{eng: e, keys: keys, rows: rows}
}

// Indexed is the block collection of one engine pass, the package's
// one block form: record IDs are the engine's dense lexicographic
// ranks, block keys are sorted, and each row holds the member ranks in
// record input order.
type Indexed struct {
	eng  *Engine
	keys []string   // sorted block keys
	rows [][]uint32 // rows[i] = member ranks of keys[i], input order
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

// Purge drops blocks larger than maxSize — the standard block-purging
// heuristic that drops high-frequency, low-information keys (e.g. the
// block for brand "acme"). maxSize <= 0 is a no-op.
func (x *Indexed) Purge(maxSize int) *Indexed {
	if maxSize <= 0 {
		return x
	}
	out := &Indexed{eng: x.eng}
	for i, row := range x.rows {
		if len(row) <= maxSize {
			out.keys = append(out.keys, x.keys[i])
			out.rows = append(out.rows, row)
		}
	}
	x.eng.cfg.Obs.Counter("blocking.blocks_purged").Add(int64(len(x.keys) - len(out.keys)))
	return out
}

// Concat joins block collections of this engine into one collection
// for pair emission only: the blocks of xs[0], then those of xs[1], and
// so on. Its keys are no longer sorted (as after ProgressiveOrder), so
// it must not feed key-ordered consumers like meta-blocking. Because
// candidate generation dedups to first emission, CandidateSet on the
// result is the append-and-dedup union of the collections' candidate
// sets, produced by one pass — in memory or spilled, as the budget
// selects. A collection of another engine poisons this one.
func (e *Engine) Concat(xs ...*Indexed) *Indexed {
	out := &Indexed{eng: e}
	if e.sink.failed() {
		return out
	}
	for _, x := range xs {
		if x.eng != e {
			e.sink.check(errors.New("blocking: Concat of a collection from another engine"))
			return &Indexed{eng: e}
		}
		out.keys = append(out.keys, x.keys...)
		out.rows = append(out.rows, x.rows...)
	}
	return out
}

// pairOffsets prefix-sums the per-row pair counts: offs[i] is the raw
// emission position of row i's first pair in the sequential order (row
// by row, in-row input order). The offsets place the in-memory sweep's
// parallel fill, and they are the shard plan and the position tags that
// keep spilled dedup byte-identical to it.
func pairOffsets(rows [][]uint32) []int {
	offs := make([]int, len(rows)+1)
	for i, row := range rows {
		offs[i+1] = offs[i] + len(row)*(len(row)-1)/2
	}
	return offs
}

// sweep is the one in-memory pair sweep, shared by every technique
// that pairs up the members of a row (blocks, LSH buckets, canopies):
// every in-row pair as a packed code, row by row in in-row input
// order, deduplicated to first emission. Per-row offsets are prefix-
// summed so the fill parallelises with deterministic placement.
func (e *Engine) sweep(rows [][]uint32) []uint64 {
	if e.sink.failed() {
		return nil
	}
	offs := pairOffsets(rows)
	codes := make([]uint64, offs[len(rows)])
	err := parallel.ForEach(e.cfg, len(rows), func(i int) {
		row := rows[i]
		w := offs[i]
		for a := 0; a < len(row); a++ {
			for b := a + 1; b < len(row); b++ {
				codes[w] = pairCode(row[a], row[b])
				w++
			}
		}
	})
	if e.sink.check(err) {
		return nil
	}
	return dedupCodesStable(codes)
}

// CandidateSet expands the blocks into the deduplicated packed
// candidate collection: first occurrence over the blocks in order,
// in-block input order. Two strategies produce that byte-identical
// order, chosen by the one thing the code can observe — the raw pair
// bytes against Opts.PairMemBudget: the in-memory sweep, or, past the
// budget, external generation that spills sorted runs to temp files,
// merges them once into deduplicated position buckets and replays
// those by position (see spill.go). Spill-backed sets must be released
// with Close.
func (x *Indexed) CandidateSet() *CandidateSet {
	e := x.eng
	if e.sink.failed() {
		return e.set(nil)
	}
	nraw := x.Comparisons()
	var cs *CandidateSet
	if e.budget > 0 && int64(nraw)*8 > e.budget {
		cs = x.spillCandidates()
	} else {
		cs = e.set(e.sweep(x.rows))
	}
	if e.sink.failed() {
		return e.set(nil)
	}
	reg := e.cfg.Obs
	rawC := reg.Counter("blocking.pairs_raw")
	rawC.Add(int64(nraw))
	emitC := reg.Counter("blocking.pairs_emitted")
	emitC.Add(int64(cs.Len()))
	// Cumulative ratio across all passes on this registry.
	if tot := rawC.Value(); tot > 0 {
		reg.Gauge("blocking.dedup_ratio").Set(float64(emitC.Value()) / float64(tot))
	}
	return cs
}

// Pairs expands the blocks into deduplicated candidate pairs.
func (x *Indexed) Pairs() []data.Pair {
	cs := x.CandidateSet()
	defer cs.Close()
	return cs.Pairs()
}

// CandidateSet is a deduplicated candidate-pair collection of one
// engine, packed as uint64 rank codes over the engine's ID table. It
// streams its codes (for the matcher) or its pairs without ever
// materialising a []data.Pair.
//
// A set built under a pair-memory budget is spill-backed: its codes
// live in position-bucket run files on disk (ext != nil) and stream through
// EmitCodes/EmitPairs like an in-memory set's; Close must be called to
// remove the set's run directory.
type CandidateSet struct {
	eng   *Engine
	codes []uint64  // deduplicated pair codes, first-emission order (in-memory sets)
	ext   *spillSet // non-nil: the codes stream from disk instead
}

// Len returns the number of candidate pairs.
func (c *CandidateSet) Len() int {
	if c.ext != nil {
		return c.ext.n
	}
	return len(c.codes)
}

// Spilled reports whether the set streams from disk; release a spilled
// set with Close.
func (c *CandidateSet) Spilled() bool { return c.ext != nil }

// Close removes the run directory of a spill-backed set, which owns it
// alone. In-memory sets need no Close; calling it is a no-op.
func (c *CandidateSet) Close() error {
	if c.ext == nil {
		return nil
	}
	return os.RemoveAll(c.ext.dir)
}

// IDs returns the engine's rank table: every record ID of the engine,
// ascending and distinct, so rank r is IDs()[r]. It is a superset of
// the IDs the candidates reference and must not be mutated.
func (c *CandidateSet) IDs() []string { return c.eng.rk.ids }

// decode unpacks a code into its pair. The high word holds the smaller
// rank, so A < B lexicographically without a comparison.
func (c *CandidateSet) decode(code uint64) data.Pair {
	ids := c.eng.rk.ids
	return data.Pair{A: ids[code>>32], B: ids[code&0xffffffff]}
}

// EmitCodes streams the packed codes in emission order, from disk when
// the set is spilled, stopping early when emit returns false. A code is
// rank(A)<<32 | rank(B) over IDs(), with A < B. A spill read error is
// returned and also recorded on the engine (see Engine.Err).
func (c *CandidateSet) EmitCodes(emit func(code uint64) bool) error {
	if c.ext != nil {
		err := c.ext.emit(emit)
		c.eng.sink.check(err)
		return err
	}
	for _, code := range c.codes {
		if !emit(code) {
			return nil
		}
	}
	return nil
}

// Pairs materialises the full pair slice (nil when empty).
func (c *CandidateSet) Pairs() []data.Pair {
	n := c.Len()
	if n == 0 {
		return nil
	}
	out := make([]data.Pair, 0, n)
	c.EmitCodes(func(code uint64) bool {
		out = append(out, c.decode(code))
		return true
	})
	return out
}

// EmitPairs streams the candidates to emit in order, stopping early
// when emit returns false.
func (c *CandidateSet) EmitPairs(emit func(data.Pair) bool) {
	c.EmitCodes(func(code uint64) bool { return emit(c.decode(code)) })
}

// Union concatenates candidate sets of this engine and keeps each
// pair's first occurrence — the packed equivalent of appending pair
// slices and deduplicating through a map[data.Pair]bool. Nil operands
// are skipped. The result is always a new in-memory set: a spilled
// operand is streamed in, and its caller still owns (and closes) it. A
// set of another engine shares no rank space and poisons this one, as
// in Concat. To union the blocks of several passes, Concat them and
// take one CandidateSet instead.
func (e *Engine) Union(sets ...*CandidateSet) *CandidateSet {
	total := 0
	for _, s := range sets {
		switch {
		case s == nil:
		case s.eng != e:
			e.sink.check(errors.New("blocking: Union of a candidate set from another engine"))
		default:
			total += s.Len()
		}
	}
	if e.sink.failed() {
		return e.set(nil)
	}
	codes := make([]uint64, 0, total)
	for _, s := range sets {
		if s != nil {
			s.EmitCodes(func(code uint64) bool {
				codes = append(codes, code)
				return true
			})
		}
	}
	if e.sink.failed() {
		return e.set(nil)
	}
	return e.set(dedupCodesStable(codes))
}
