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
// the spilling pair generator. The fused stream is byte-identical for
// any Workers/Shards combination, and spills to position-bucket run
// files when it exceeds the engine's PairMemBudget, so downstream
// matching streams it in bounded batches exactly like a spilled
// blocking pass.

import (
	"bufio"
	"cmp"
	"fmt"
	"math"
	"os"
	"slices"

	"repro/internal/parallel"
)

// DefaultRRFK is the standard reciprocal-rank-fusion constant: large
// enough that a handful of top ranks don't dominate the sum, small
// enough that rank order still matters deep into each stream.
const DefaultRRFK = 60

// fusedKey packs an RRF score into a sort key that ascends as the
// score descends: positive IEEE-754 doubles order by their bit
// patterns, so the complement inverts the order. Scores are strict
// sums of positive terms, never zero, negative or NaN.
func fusedKey(score float64) uint64 { return ^math.Float64bits(score) }

// FuseRanked runs every blocker's Ranked pass over the engine — all
// streams share its interned rank space — and fuses the ranked streams
// with reciprocal-rank fusion (k <= 0 means DefaultRRFK). The returned
// set is ordered by descending RRF score (ties by ascending pair code),
// deduplicated, and byte-identical for any worker or shard count; when
// the fused stream would exceed the engine's PairMemBudget it is
// spill-backed (consume with EmitCodes or a streaming matcher and
// release with Close), exactly like a budgeted blocking pass.
func (e *Engine) FuseRanked(k float64, blockers ...RankedBlocker) *CandidateSet {
	if k <= 0 {
		k = DefaultRRFK
	}
	streams := make([][]uint64, len(blockers))
	for i, b := range blockers {
		streams[i] = b.Ranked(e).codes
	}
	fused := e.fuseRRF(k, streams)
	if e.sink.failed() {
		return e.set(nil)
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
	return e.set(codes)
}

// fuseRRF is the parallel rank-space RRF kernel. It returns the fused
// entries in fused order with pos rewritten to the fused rank (the
// spill path needs positions). Determinism: shard boundaries land on
// distinct-code edges, so a code's contributions always accumulate in
// one shard, summed in (stream index, ascending rank) order — the
// floating-point scores, and therefore the fused order, are identical
// for any worker or shard count.
func (e *Engine) fuseRRF(k float64, streams [][]uint64) []pe {
	// Per-stream code-sorted entries, pos = rank: built in rank order,
	// so the stable radix sort on code leaves them in (code, pos) order.
	ents := make([][]pe, len(streams))
	err := parallel.ForEach(e.cfg, len(streams), func(s int) {
		codes := streams[s]
		es := make([]pe, len(codes))
		for i, c := range codes {
			es[i] = pe{code: c, pos: uint64(i)}
		}
		radixSortPE(es, nil)
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
	ranges := parallel.WeightedRanges(cum, e.partitions())
	// Per-shard accumulation: walk each stream's sorted entries in
	// lockstep with the shard's distinct-code range, then sort the
	// shard's scored entries into fused order. A scored entry carries
	// its score key in the code slot and its pair code in the position
	// slot, so (code, pos) order — the one order the radix sort and the
	// merge know — is descending score, ties by ascending pair code
	// (unique, so the order is total). The entries are built in
	// ascending pair code, so the stable radix sort on the key gives it.
	per := make([][]pe, len(ranges))
	err = parallel.ForEach(e.cfg, len(ranges), func(si int) {
		lo, hi := ranges[si][0], ranges[si][1]
		ptrs := make([]int, len(ents))
		for s, es := range ents {
			ptrs[s], _ = slices.BinarySearchFunc(es, distinct[lo], func(en pe, c uint64) int {
				return cmp.Compare(en.code, c)
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
			out = append(out, pe{code: fusedKey(score), pos: code})
		}
		radixSortPE(out, nil)
		per[si] = out
	})
	if e.sink.check(err) {
		return nil
	}
	// Deterministic sorted merge of the per-shard fused orders, then
	// back to (pair code, fused rank) entries.
	sources := make([]peSource, len(per))
	for i, es := range per {
		sources[i] = &sliceSource{ents: es}
	}
	fused := make([]pe, 0, len(distinct))
	err = mergePE(sources, func(en pe) error {
		fused = append(fused, pe{code: en.pos, pos: uint64(len(fused))})
		return nil
	})
	if e.sink.check(err) {
		return nil
	}
	return fused
}

// spillFused writes a fused stream to disk and returns the spill-backed
// candidate set. Fused ranks are the positions, so each contiguous rank
// range of runCap(budget, 1) entries is written as one position bucket
// and the replay emits the exact fused order. The long-lived set then
// holds no pair state in RAM.
func (e *Engine) spillFused(fused []pe) *CandidateSet {
	reg := e.cfg.Obs
	dir, err := os.MkdirTemp(e.dir, "bdi-rrf-*")
	if e.sink.check(err) {
		return e.set(nil)
	}
	ss := &spillSet{dir: dir, n: len(fused)}
	bw := bufio.NewWriterSize(nil, 1<<18)
	span := runCap(e.budget, 1)
	for lo := 0; lo < len(fused); lo += span {
		hi := min(lo+span, len(fused))
		path, err := writeRun(bw, dir, fmt.Sprintf("b-%05d.run", len(ss.buckets)), fused[lo:hi])
		if err != nil {
			os.RemoveAll(dir)
			e.sink.check(err)
			return e.set(nil)
		}
		ss.buckets = append(ss.buckets, posBucket{path: path, lo: uint64(lo), hi: uint64(hi), n: hi - lo})
	}
	reg.Counter("blocking.rrf_spilled").Add(int64(len(fused)))
	reg.Counter("blocking.spill_runs").Add(int64(len(ss.buckets)))
	reg.Counter("blocking.spill_bytes").Add(int64(len(fused)) * peSize)
	reg.Counter("blocking.spill_merge_runs").Add(int64(len(ss.buckets)))
	return &CandidateSet{eng: e, ext: ss}
}
