package blocking

// Rank-fused multi-blocker candidate generation. Every blocker is
// treated as a producer of a *ranked* candidate stream in packed
// pair-code space — rank = the blocker's progressive emission position
// (smallest blocks first for key blockers, nearest neighbours first
// for sorted neighbourhood, smallest buckets first for MinHash LSH) —
// and the streams are fused with reciprocal-rank fusion:
//
//	score(pair) = Σ over streams s containing the pair of
//	              1 / (K + rank_s(pair) + 1)
//
// Pairs surfaced near the top of several independent blockers
// accumulate score from each, so consensus candidates sort ahead of
// pairs only one blocker produced — the ordering a budgeted
// (pay-as-you-go) matcher should consume. The kernel runs in rank
// space on the shared interned engine: per-shard score accumulation
// over parallel.WeightedRanges (codes never split across shards and
// per-code contributions always sum in stream-index order, so the
// floating-point result is independent of the worker and shard count)
// followed by a deterministic k-way sorted merge, the same shape as
// the sharded pair generator. The fused stream is byte-identical for
// any Workers/Shards combination, and spills to disk run files when it
// exceeds the engine's PairMemBudget, so downstream matching streams
// it in bounded batches exactly like a spilled blocking pass.

import (
	"fmt"
	"math"
	"os"
	"slices"

	"repro/internal/data"
	"repro/internal/parallel"
)

// DefaultRRFK is the standard reciprocal-rank-fusion constant: large
// enough that a handful of top ranks don't dominate the sum, small
// enough that rank order still matters deep into each stream.
const DefaultRRFK = 60

// RankedStream is one blocker's ranked candidate output over an
// engine's rank space: Codes[i] is the packed pair code the blocker
// ranks at position i (rank 0 = most promising). Codes must be
// deduplicated within the stream; the producers below guarantee it.
type RankedStream struct {
	Name  string
	Codes []uint64
}

// RankedBlocker produces a ranked candidate stream over a shared
// engine, so every stream lives in one rank space and the fusion
// kernel can merge them on packed codes.
type RankedBlocker interface {
	Ranked(e *Engine) RankedStream
}

// RankedPairs decodes a ranked stream into its pair slice in rank
// order — the single-blocker baseline an evaluation compares the fused
// ordering against.
func (e *Engine) RankedPairs(s RankedStream) []data.Pair {
	return (&CandidateSet{ids: e.rk.ids, codes: s.Codes}).Pairs()
}

// RankedKey ranks a key blocker's candidates progressively: blocks are
// emitted smallest-first (rare keys are most discriminative), so a
// pair's rank is its position in the progressive emission order.
type RankedKey struct {
	Name string
	Key  KeyFunc
	// MaxBlock purges blocks above this size when > 0.
	MaxBlock int
}

// Ranked implements RankedBlocker.
func (r RankedKey) Ranked(e *Engine) RankedStream {
	x := e.Blocks(r.Key).Purge(r.MaxBlock).ProgressiveOrder()
	return RankedStream{Name: r.Name, Codes: x.inMemoryCodes()}
}

// RankedSortedNeighborhood ranks the sorted-neighbourhood blocker by
// window distance: all adjacent pairs (distance 1) across every pass
// first, then distance 2, and so on — records that sort next to each
// other are the most promising, widening distances progressively less
// so.
type RankedSortedNeighborhood struct {
	Name string
	Keys []KeyFunc // one pass per key; each must yield ≤1 key
	// Window is the sliding window size (≥2); default 5.
	Window int
}

// Ranked implements RankedBlocker.
func (r RankedSortedNeighborhood) Ranked(e *Engine) RankedStream {
	w := r.Window
	if w < 2 {
		w = 5
	}
	type entry struct {
		k    string
		rank uint32
	}
	passes := make([][]entry, len(r.Keys))
	for pi, key := range r.Keys {
		keyed, err := parallel.MapSlice(e.cfg, e.recs, func(rec *data.Record) []string { return key(rec) })
		if e.sink.check(err) {
			return RankedStream{Name: r.Name}
		}
		entries := make([]entry, 0, len(e.recs))
		for i := range e.recs {
			ks := keyed[i]
			if len(ks) == 0 || ks[0] == "" {
				continue
			}
			entries = append(entries, entry{k: ks[0], rank: e.ranks[i]})
		}
		slices.SortFunc(entries, func(a, b entry) int {
			if a.k != b.k {
				if a.k < b.k {
					return -1
				}
				return 1
			}
			return int(int64(a.rank) - int64(b.rank))
		})
		passes[pi] = entries
	}
	var codes []uint64
	for d := 1; d < w; d++ {
		for _, entries := range passes {
			for i := 0; i+d < len(entries); i++ {
				codes = append(codes, pairCode(entries[i].rank, entries[i+d].rank))
			}
		}
	}
	return RankedStream{Name: r.Name, Codes: dedupCodesStable(codes)}
}

// RankedMinHash ranks the MinHash-LSH blocker progressively: band
// buckets are emitted smallest-first (ties broken by bucket hash), the
// same rare-collisions-are-most-promising heuristic the key blockers
// use.
type RankedMinHash struct {
	Name    string
	MinHash MinHashLSH
}

// Ranked implements RankedBlocker.
func (r RankedMinHash) Ranked(e *Engine) RankedStream {
	attrs, bands, rows := r.MinHash.params()
	n := bands * rows
	sigs, err := parallel.MapSlice(e.cfg, e.recs, func(rec *data.Record) []uint64 {
		return r.MinHash.signature(rec, attrs, n)
	})
	if e.sink.check(err) {
		return RankedStream{Name: r.Name}
	}
	buckets := map[uint64][]uint32{}
	for i := range e.recs {
		sig := sigs[i]
		if sig == nil {
			continue
		}
		for b := 0; b < bands; b++ {
			key := bandHash(b, sig[b*rows:(b+1)*rows])
			buckets[key] = append(buckets[key], e.ranks[i])
		}
	}
	keys := make([]uint64, 0, len(buckets))
	for k, ids := range buckets {
		if len(ids) >= 2 {
			keys = append(keys, k)
		}
	}
	slices.SortFunc(keys, func(a, b uint64) int {
		if la, lb := len(buckets[a]), len(buckets[b]); la != lb {
			return la - lb
		}
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	})
	var codes []uint64
	for _, k := range keys {
		ids := buckets[k]
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				codes = append(codes, pairCode(ids[i], ids[j]))
			}
		}
	}
	return RankedStream{Name: r.Name, Codes: dedupCodesStable(codes)}
}

// fusedKey packs an RRF score into a sort key that ascends as the
// score descends: positive IEEE-754 doubles order by their bit
// patterns, so the complement inverts the order. Scores are strict
// sums of positive terms, never zero, negative or NaN.
func fusedKey(score float64) uint64 { return ^math.Float64bits(score) }

// peLessKeyCode orders fused entries by (packed score key, code) —
// descending score, ties by ascending code. Codes are unique across
// entries, so the order is total.
func peLessKeyCode(a, b pe) bool {
	if a.pos != b.pos {
		return a.pos < b.pos
	}
	return a.code < b.code
}

// FuseRanked runs every producer over the engine — all streams share
// its interned rank space — and fuses the ranked streams with
// reciprocal-rank fusion (k <= 0 means DefaultRRFK). The returned set
// is ordered by descending RRF score (ties by ascending pair code),
// deduplicated, and byte-identical for any worker or shard count; when
// the fused stream would exceed the engine's PairMemBudget it is
// spill-backed (consume with EmitPairs or a streaming matcher and
// release with Close), exactly like a budgeted blocking pass.
func (e *Engine) FuseRanked(k float64, blockers ...RankedBlocker) *CandidateSet {
	if k <= 0 {
		k = DefaultRRFK
	}
	streams := make([]RankedStream, len(blockers))
	for i, b := range blockers {
		streams[i] = b.Ranked(e)
	}
	return e.FuseStreams(k, streams...)
}

// FuseStreams is FuseRanked over already-produced ranked streams (all
// of which must live in this engine's rank space).
func (e *Engine) FuseStreams(k float64, streams ...RankedStream) *CandidateSet {
	if k <= 0 {
		k = DefaultRRFK
	}
	if e.sink.failed() {
		return &CandidateSet{ids: e.rk.ids, sink: e.sink}
	}
	fused := e.fuseRRF(k, streams)
	if e.sink.failed() {
		return &CandidateSet{ids: e.rk.ids, sink: e.sink}
	}
	reg := e.cfg.Obs
	reg.Counter("blocking.rrf_streams").Add(int64(len(streams)))
	reg.Counter("blocking.rrf_candidates").Add(int64(len(fused)))
	if e.budget > 0 && int64(len(fused))*peSize > e.budget {
		return e.spillFused(fused)
	}
	codes := make([]uint64, len(fused))
	for i, f := range fused {
		codes[i] = f.code
	}
	return &CandidateSet{ids: e.rk.ids, codes: codes, sink: e.sink}
}

// fuseRRF is the parallel rank-space RRF kernel. It returns the fused
// entries in fused order with pos rewritten to the fused rank (the
// spill path needs positions). Determinism: shard boundaries land on
// distinct-code edges, so a code's contributions always accumulate in
// one shard, summed in (stream index, ascending rank) order — the
// floating-point scores, and therefore the fused order, are identical
// for any worker or shard count.
func (e *Engine) fuseRRF(k float64, streams []RankedStream) []pe {
	// Per-stream code-sorted entries, pos = rank.
	ents := make([][]pe, len(streams))
	err := parallel.ForEach(e.cfg, len(streams), func(s int) {
		codes := streams[s].Codes
		es := make([]pe, len(codes))
		for i, c := range codes {
			es[i] = pe{code: c, pos: uint64(i)}
		}
		slices.SortFunc(es, func(a, b pe) int {
			switch {
			case peLessCode(a, b):
				return -1
			case peLessCode(b, a):
				return 1
			}
			return 0
		})
		ents[s] = es
	})
	if e.sink.check(err) {
		return nil
	}
	// Distinct code universe plus per-code multiplicity prefix sums —
	// the weight plan for sharding the accumulation.
	total := 0
	for _, es := range ents {
		total += len(es)
	}
	if total == 0 {
		return nil
	}
	all := make([]uint64, 0, total)
	for _, es := range ents {
		for _, en := range es {
			all = append(all, en.code)
		}
	}
	slices.Sort(all)
	distinct := make([]uint64, 0, len(all))
	cum := make([]int, 1, len(all)+1)
	for i, c := range all {
		if i == 0 || c != all[i-1] {
			distinct = append(distinct, c)
			cum = append(cum, cum[len(cum)-1])
		}
		cum[len(cum)-1]++
	}
	shards := e.shards
	if shards <= 1 {
		shards = e.cfg.Workers
	}
	ranges := parallel.WeightedRanges(cum, max(shards, 1))
	e.cfg.Obs.Gauge("blocking.rrf_shards").Set(float64(len(ranges)))
	// Per-shard accumulation: walk each stream's sorted entries in
	// lockstep with the shard's distinct-code range, then sort the
	// shard's scored entries into fused order.
	per := make([][]pe, len(ranges))
	err = parallel.ForEach(e.cfg, len(ranges), func(si int) {
		lo, hi := ranges[si][0], ranges[si][1]
		ptrs := make([]int, len(ents))
		for s, es := range ents {
			ptrs[s], _ = slices.BinarySearchFunc(es, distinct[lo], func(en pe, c uint64) int {
				switch {
				case en.code < c:
					return -1
				case en.code > c:
					return 1
				}
				return 0
			})
		}
		out := make([]pe, 0, hi-lo)
		for ci := lo; ci < hi; ci++ {
			code := distinct[ci]
			score := 0.0
			for s, es := range ents {
				p := ptrs[s]
				for p < len(es) && es[p].code == code {
					score += 1 / (k + float64(es[p].pos) + 1)
					p++
				}
				ptrs[s] = p
			}
			out = append(out, pe{code: code, pos: fusedKey(score)})
		}
		slices.SortFunc(out, func(a, b pe) int {
			switch {
			case peLessKeyCode(a, b):
				return -1
			}
			return 1
		})
		per[si] = out
	})
	if e.sink.check(err) {
		return nil
	}
	// Deterministic sorted merge of the per-shard fused orders, then
	// rewrite pos from packed score key to fused rank.
	sources := make([]peSource, len(per))
	for i, es := range per {
		sources[i] = &sliceSource{ents: es}
	}
	fused := make([]pe, 0, len(distinct))
	err = mergePE(sources, peLessKeyCode, func(en pe) error {
		fused = append(fused, pe{code: en.code, pos: uint64(len(fused))})
		return nil
	})
	if e.sink.check(err) {
		return nil
	}
	return fused
}

// spillFused writes a fused stream to disk run files and returns the
// spill-backed candidate set: emission runs in fused order (each chunk
// is a contiguous rank range, so the position merge replays the exact
// fused order) plus the by-code membership stream unions probe. The
// long-lived set then holds no pair state in RAM.
func (e *Engine) spillFused(fused []pe) *CandidateSet {
	reg := e.cfg.Obs
	dir, err := os.MkdirTemp(e.dir, "bdi-rrf-*")
	if e.sink.check(err) {
		return &CandidateSet{ids: e.rk.ids, sink: e.sink}
	}
	fail := func(err error) *CandidateSet {
		os.RemoveAll(dir)
		e.sink.check(err)
		return &CandidateSet{ids: e.rk.ids, sink: e.sink}
	}
	ss := &spillSet{dir: dir, reg: reg, n: len(fused)}
	ss.refs.Store(1)
	var written int64
	capE := runCap(e.budget, 1)
	for seq, lo := 0, 0; lo < len(fused); seq++ {
		hi := min(lo+capE, len(fused))
		w, werr := createRun(dir, fmt.Sprintf("c-%05d.run", seq))
		if werr != nil {
			return fail(werr)
		}
		for _, en := range fused[lo:hi] {
			if werr := w.write(en); werr != nil {
				w.close()
				return fail(werr)
			}
		}
		if werr := w.close(); werr != nil {
			return fail(werr)
		}
		ss.emitRuns = append(ss.emitRuns, w.path)
		written += w.n
		lo = hi
	}
	byCode := slices.Clone(fused)
	slices.SortFunc(byCode, func(a, b pe) int {
		switch {
		case peLessCode(a, b):
			return -1
		case peLessCode(b, a):
			return 1
		}
		return 0
	})
	bw, err := createRun(dir, "bycode.run")
	if err != nil {
		return fail(err)
	}
	for _, en := range byCode {
		if err := bw.write(en); err != nil {
			bw.close()
			return fail(err)
		}
	}
	if err := bw.close(); err != nil {
		return fail(err)
	}
	ss.byCode = bw.path
	reg.Counter("blocking.rrf_spilled").Add(int64(len(fused)))
	reg.Counter("blocking.spill_runs").Add(int64(len(ss.emitRuns)))
	reg.Counter("blocking.spill_bytes").Add((written + bw.n) * peSize)
	reg.Counter("blocking.spill_merge_runs").Add(int64(len(ss.emitRuns)))
	return &CandidateSet{ids: e.rk.ids, ext: ss, sink: e.sink}
}

// inMemoryCodes expands the collection's deduplicated codes in
// emission order, always in RAM regardless of the engine's pair-memory
// budget — ranked streams are kernel inputs, not long-lived candidate
// sets, so they bypass the spill path.
func (x *Indexed) inMemoryCodes() []uint64 {
	if x.sink.failed() {
		return nil
	}
	offs := x.pairOffsets()
	if x.shards > 1 {
		return x.shardedCodes(offs)
	}
	raw := x.rawCodes()
	if x.sink.failed() {
		return nil
	}
	return dedupCodesStable(raw)
}
