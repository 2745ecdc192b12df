package blocking

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/parallel"
)

// Meta-blocking (Papadakis et al.) restructures a redundancy-positive
// block collection (e.g. token blocking) into a blocking graph — nodes
// are records, edges are co-occurring pairs — weights the edges by
// co-occurrence evidence and prunes weak edges, cutting comparisons by
// an order of magnitude at small recall cost.
//
// The graph is built on the interned representation: each record
// carries a sorted []uint32 block-ID set, common-block counts come
// from linear merges over those sorted sets (the same kernel style the
// similarity.FeatureIndex uses for token sets), and edge scoring is
// parallelized per record shard with a deterministic rank-order merge.
// WEP/CEP/WNP pruning evaluates the same floating-point expressions in
// the same order as the sequential implementation, so the surviving
// candidate list is byte-identical at any worker count.

// WeightScheme selects the edge-weighting function.
type WeightScheme int

const (
	// CBS weights an edge by the number of common blocks.
	CBS WeightScheme = iota
	// ECBS scales CBS by the rarity of each endpoint's blocks
	// (entity-aware IDF correction).
	ECBS
	// JS weights an edge by the Jaccard similarity of the two records'
	// block sets.
	JS
)

// PruneScheme selects the edge-pruning strategy.
type PruneScheme int

const (
	// WEP (weighted edge pruning) keeps edges above the global mean
	// weight.
	WEP PruneScheme = iota
	// CEP (cardinality edge pruning) keeps the globally top-K edges,
	// K = total block assignments / 2.
	CEP
	// WNP (weighted node pruning) keeps, per node, edges above that
	// node's mean incident weight.
	WNP
)

// MetaBlocker prunes a block collection into candidate pairs (Pruned).
type MetaBlocker struct {
	Weight WeightScheme
	Prune  PruneScheme
}

// iedge is a weighted packed record pair.
type iedge struct {
	code uint64 // pairCode of the endpoints
	w    float64
}

// Pruned builds the blocking graph from the blocks and returns the
// pairs surviving pruning as a packed candidate set in pruning order.
// Pruning runs on x's engine — its workers, its registry (which
// records "blocking.meta_edges" / "blocking.meta_kept"), its context
// and its error sink: a cancellation or worker panic sticks to the
// engine and Pruned returns an empty candidate set; the caller reads
// Engine.Err afterwards. Output is identical at any worker count.
func (mb MetaBlocker) Pruned(x *Indexed) *CandidateSet {
	e := x.eng
	if e.sink.failed() {
		return e.set(nil)
	}
	n := len(e.rk.ids)

	// Per-record sorted block-ID sets, filled from one flat buffer.
	// Scanning blocks in ascending index order makes each set sorted by
	// construction.
	deg := make([]int32, n)
	for _, row := range x.rows {
		for _, r := range row {
			deg[r]++
		}
	}
	offs := make([]int32, n+1)
	for r := 0; r < n; r++ {
		offs[r+1] = offs[r] + deg[r]
	}
	flat := make([]uint32, offs[n])
	cursor := make([]int32, n)
	copy(cursor, offs[:n])
	for b, row := range x.rows {
		for _, r := range row {
			flat[cursor[r]] = uint32(b)
			cursor[r]++
		}
	}
	recBlocks := func(r uint32) []uint32 { return flat[offs[r]:offs[r+1]] }

	// Edge scoring, sharded per record. Rank r owns every edge whose
	// smaller endpoint it is: the occurrences of a larger rank s across
	// r's blocks are exactly the common blocks of (r, s), so a sort +
	// run-length pass over the gathered co-occurrers yields each
	// neighbour with its CBS count — equal, by construction, to the
	// linear-merge intersection of the two sorted block-ID sets.
	nBlocks := float64(len(x.keys))
	perRec := make([][]iedge, n)
	err := parallel.ForEach(e.cfg, n, func(ri int) {
		r := uint32(ri)
		total := 0
		for _, b := range recBlocks(r) {
			total += len(x.rows[b])
		}
		if total == 0 {
			return
		}
		scratch := make([]uint32, 0, total)
		for _, b := range recBlocks(r) {
			for _, s := range x.rows[b] {
				if s > r {
					scratch = append(scratch, s)
				}
			}
		}
		if len(scratch) == 0 {
			return
		}
		slices.Sort(scratch)
		edges := make([]iedge, 0, len(scratch))
		for i := 0; i < len(scratch); {
			s := scratch[i]
			c := 1
			for i++; i < len(scratch) && scratch[i] == s; i++ {
				c++
			}
			edges = append(edges, iedge{
				code: pairCode(r, s),
				w:    mb.weight(c, nBlocks, deg[r], deg[s]),
			})
		}
		perRec[ri] = edges
	})
	if e.sink.check(err) {
		return e.set(nil)
	}
	total := 0
	for _, es := range perRec {
		total += len(es)
	}
	edges := make([]iedge, 0, total)
	for _, es := range perRec {
		edges = append(edges, es...)
	}

	// Deterministic order before pruning: weight descending, then pair
	// order (code order is (A, B) order because ranks are lexicographic).
	slices.SortFunc(edges, func(a, b iedge) int {
		if a.w != b.w {
			if a.w > b.w {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.code, b.code)
	})

	var kept []iedge
	switch mb.Prune {
	case WEP:
		kept = pruneWEP(edges)
	case CEP:
		k := 0
		for _, row := range x.rows {
			k += len(row)
		}
		k /= 2
		if k < 1 {
			k = 1
		}
		if k > len(edges) {
			k = len(edges)
		}
		kept = edges[:k]
	case WNP:
		kept = pruneWNP(edges, n)
	}
	reg := e.cfg.Obs
	reg.Counter("blocking.meta_edges").Add(int64(len(edges)))
	reg.Counter("blocking.meta_kept").Add(int64(len(kept)))
	if len(kept) == 0 {
		return e.set(nil)
	}
	codes := make([]uint64, len(kept))
	for i, ed := range kept {
		codes[i] = ed.code
	}
	return e.set(codes)
}

// weight computes the edge weight from the common-block count and the
// endpoint degrees, with the exact floating-point expressions of the
// sequential implementation (lo is the lexicographically smaller
// endpoint, matching pair.A).
func (mb MetaBlocker) weight(c int, nBlocks float64, degLo, degHi int32) float64 {
	switch mb.Weight {
	case CBS:
		return float64(c)
	case ECBS:
		return float64(c) *
			math.Log(nBlocks/float64(degLo)) *
			math.Log(nBlocks/float64(degHi))
	case JS:
		union := int(degLo) + int(degHi) - c
		if union > 0 {
			return float64(c) / float64(union)
		}
	}
	return 0
}

func pruneWEP(edges []iedge) []iedge {
	if len(edges) == 0 {
		return nil
	}
	var sum float64
	for _, e := range edges {
		sum += e.w
	}
	mean := sum / float64(len(edges))
	var out []iedge
	for _, e := range edges {
		if e.w > mean {
			out = append(out, e)
		}
	}
	return out
}

func pruneWNP(edges []iedge, n int) []iedge {
	sum := make([]float64, n)
	cnt := make([]int32, n)
	for _, e := range edges {
		lo, hi := uint32(e.code>>32), uint32(e.code&0xffffffff)
		sum[lo] += e.w
		sum[hi] += e.w
		cnt[lo]++
		cnt[hi]++
	}
	mean := func(r uint32) float64 {
		if cnt[r] == 0 {
			return 0
		}
		return sum[r] / float64(cnt[r])
	}
	var out []iedge
	for _, e := range edges {
		lo, hi := uint32(e.code>>32), uint32(e.code&0xffffffff)
		// Keep an edge retained by either endpoint's local threshold.
		if e.w >= mean(lo) || e.w >= mean(hi) {
			out = append(out, e)
		}
	}
	return out
}
