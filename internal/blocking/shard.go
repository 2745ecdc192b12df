package blocking

// Sharded pair generation. The sorted key space is split into
// contiguous block ranges of roughly equal pair weight
// (parallel.WeightedRanges over the pair-count prefix sums), each
// shard expands and locally deduplicates its blocks' pairs in
// parallel, and a deterministic k-way merge reconciles codes whose
// blocks span shards. Every raw pair carries its global emission
// position, so the merged, deduplicated set can be restored to the
// exact first-occurrence order of the sequential sweep — sharded
// output is byte-identical to the unsharded engine for any shard or
// worker count.

import (
	"slices"

	"repro/internal/parallel"
)

// pe is one raw pair emission: the packed pair code plus its global
// position in the sequential emission order (sorted keys, in-block
// input order). The position makes stable dedup mergeable: the global
// first occurrence of a code is simply its minimum position.
type pe struct{ code, pos uint64 }

// peLessCode orders entries by (code, pos) — the merge key for dedup,
// where the first entry of a code run is its first global occurrence.
func peLessCode(a, b pe) bool {
	if a.code != b.code {
		return a.code < b.code
	}
	return a.pos < b.pos
}

// peLessPos orders entries by position — the merge key for restoring
// emission order (positions are globally unique).
func peLessPos(a, b pe) bool { return a.pos < b.pos }

// appendBlockEntries appends the (code, pos) entries of blocks
// [lo, hi) to buf in raw emission order, flushing through full when
// the buffer reaches its capacity. offs supplies each block's global
// starting position.
func (x *Indexed) appendBlockEntries(lo, hi int, offs []int, buf []pe, full func([]pe) ([]pe, error)) ([]pe, error) {
	var err error
	for b := lo; b < hi; b++ {
		row := x.rows[b]
		pos := uint64(offs[b])
		for i := 0; i < len(row); i++ {
			for j := i + 1; j < len(row); j++ {
				buf = append(buf, pe{code: pairCode(row[i], row[j]), pos: pos})
				pos++
				if len(buf) == cap(buf) {
					if buf, err = full(buf); err != nil {
						return buf, err
					}
				}
			}
		}
	}
	return buf, nil
}

// sortCompactEntries sorts entries by (code, pos) and keeps only the
// first entry of each code — its minimum position — in place.
func sortCompactEntries(ents []pe) []pe {
	slices.SortFunc(ents, func(a, b pe) int {
		switch {
		case peLessCode(a, b):
			return -1
		case peLessCode(b, a):
			return 1
		}
		return 0
	})
	out := ents[:0]
	for i, e := range ents {
		if i == 0 || e.code != ents[i-1].code {
			out = append(out, e)
		}
	}
	return out
}

// shardPlan returns the pair-weighted block ranges for the configured
// shard count.
func (x *Indexed) shardPlan(offs []int, shards int) [][2]int {
	if shards < 1 {
		shards = 1
	}
	return parallel.WeightedRanges(offs, shards)
}

// shardedCodes is the sharded in-memory strategy behind CandidateSet:
// per-shard expansion and local dedup in parallel, a loser-tree merge
// by (code, pos) that drops cross-shard duplicates keeping each code's
// global first occurrence, and a final position sort restoring the
// sequential emission order.
func (x *Indexed) shardedCodes(offs []int) []uint64 {
	ranges := x.shardPlan(offs, x.shards)
	if len(ranges) == 0 {
		return nil
	}
	per := make([][]pe, len(ranges))
	err := parallel.ForEach(x.cfg, len(ranges), func(s int) {
		lo, hi := ranges[s][0], ranges[s][1]
		ents := make([]pe, 0, offs[hi]-offs[lo])
		// The buffer is sized for the whole shard, so full never fires.
		ents, _ = x.appendBlockEntries(lo, hi, offs, ents, func(b []pe) ([]pe, error) { return b, nil })
		per[s] = sortCompactEntries(ents)
	})
	if x.sink.check(err) {
		return nil
	}
	x.cfg.Obs.Gauge("blocking.shards").Set(float64(len(ranges)))
	sources := make([]peSource, len(per))
	for i, ents := range per {
		sources[i] = &sliceSource{ents: ents}
	}
	var merged []pe
	have := false
	var last uint64
	err = mergePE(sources, peLessCode, func(e pe) error {
		if !have || e.code != last {
			merged = append(merged, e)
			last, have = e.code, true
		}
		return nil
	})
	if x.sink.check(err) {
		return nil
	}
	slices.SortFunc(merged, func(a, b pe) int {
		switch {
		case peLessPos(a, b):
			return -1
		default:
			return 1
		}
	})
	codes := make([]uint64, len(merged))
	for i, e := range merged {
		codes[i] = e.code
	}
	return codes
}
