package blocking

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/data"
	"repro/internal/parallel"
)

// SortedNeighborhood implements the sorted-neighbourhood method: records
// are sorted by a sorting key and every pair within a sliding window of
// size Window becomes a candidate. Several keys run one pass each and
// union the candidates, the standard remedy for key corruption. Key
// extraction runs across the engine's workers; window pairs dedup
// through packed codes, preserving the sequential emission order.
type SortedNeighborhood struct {
	Keys   []KeyFunc // one pass per key; each must yield ≤1 key
	Window int       // window size (≥2); default 5
}

// snWindow resolves a configured window size.
func snWindow(w int) int {
	if w < 2 {
		return 5
	}
	return w
}

// passes is the front half of sorted neighbourhood, shared by both
// emission orders: one pass per key, each the ranks of the keyed
// records sorted by (key, rank) — rank order is ID order. Keys are
// extracted on the engine's pool; records yielding no key are skipped.
// A nil key poisons the engine.
func (sn SortedNeighborhood) passes(e *Engine) [][]uint32 {
	type entry struct {
		k    string
		rank uint32
	}
	if e.sink.failed() {
		return nil
	}
	passes := make([][]uint32, 0, len(sn.Keys))
	for _, key := range sn.Keys {
		if key == nil {
			e.sink.check(fmt.Errorf("blocking: sorted neighbourhood: %w", ErrNilKey))
			return nil
		}
		keyed, err := parallel.MapSlice(e.cfg, e.recs, func(r *data.Record) []string { return key(r) })
		if e.sink.check(err) {
			return nil
		}
		entries := make([]entry, 0, len(e.recs))
		for i, ks := range keyed {
			if len(ks) == 0 || ks[0] == "" {
				continue
			}
			entries = append(entries, entry{k: ks[0], rank: e.ranks[i]})
		}
		slices.SortFunc(entries, func(a, b entry) int {
			if c := cmp.Compare(a.k, b.k); c != 0 {
				return c
			}
			return cmp.Compare(a.rank, b.rank)
		})
		ranks := make([]uint32, len(entries))
		for i, en := range entries {
			ranks[i] = en.rank
		}
		passes = append(passes, ranks)
	}
	return passes
}

// Candidates implements Blocker: pass by pass, each record paired with
// the Window-1 records sorted after it.
func (sn SortedNeighborhood) Candidates(e *Engine) *CandidateSet {
	w := snWindow(sn.Window)
	var codes []uint64
	for _, ranks := range sn.passes(e) {
		for i := range ranks {
			for j := i + 1; j < len(ranks) && j < i+w; j++ {
				codes = append(codes, pairCode(ranks[i], ranks[j]))
			}
		}
	}
	return e.set(dedupCodesStable(codes))
}

// Ranked implements RankedBlocker by window distance: all adjacent
// pairs (distance 1) across every pass first, then distance 2, and so
// on — records that sort next to each other are the most promising,
// widening distances progressively less so.
func (sn SortedNeighborhood) Ranked(e *Engine) *CandidateSet {
	passes := sn.passes(e)
	w := snWindow(sn.Window)
	var codes []uint64
	for d := 1; d < w; d++ {
		for _, ranks := range passes {
			for i := 0; i+d < len(ranks); i++ {
				codes = append(codes, pairCode(ranks[i], ranks[i+d]))
			}
		}
	}
	return e.set(dedupCodesStable(codes))
}

// Canopy implements canopy clustering with a cheap similarity: records
// are greedily grouped under canopies using Sim; pairs within a canopy
// are candidates. Loose < Tight thresholds follow McCallum et al.:
// records within Loose of a centre join its canopy (and may join
// others); records within Tight are removed from further consideration
// as centres. The greedy sweep is inherently sequential; the canopies
// then pair up through the engine's pair sweep like blocks do.
type Canopy struct {
	Sim   func(a, b *data.Record) float64
	Loose float64 // canopy-membership threshold (lower)
	Tight float64 // removal threshold (higher)
}

// Candidates implements Blocker. A nil Sim poisons the engine with
// ErrNilKey; the sweep runs as one task on the engine's pool, so a
// panicking Sim or a cancelled context sticks to the engine too.
func (c Canopy) Candidates(e *Engine) *CandidateSet {
	if e.sink.failed() {
		return e.set(nil)
	}
	if c.Sim == nil {
		e.sink.check(fmt.Errorf("blocking: canopy: %w", ErrNilKey))
		return e.set(nil)
	}
	var canopies [][]uint32
	err := parallel.ForEach(e.cfg, 1, func(int) {
		remaining := make([]int, len(e.recs)) // record positions still eligible
		for i := range remaining {
			remaining[i] = i
		}
		for len(remaining) > 0 {
			center := remaining[0]
			canopy := []uint32{e.ranks[center]}
			var next []int
			for _, i := range remaining[1:] {
				s := c.Sim(e.recs[center], e.recs[i])
				if s >= c.Loose {
					canopy = append(canopy, e.ranks[i])
				}
				if s < c.Tight {
					next = append(next, i)
				}
			}
			remaining = next
			canopies = append(canopies, canopy)
		}
	})
	if e.sink.check(err) {
		return e.set(nil)
	}
	return e.set(e.sweep(canopies))
}
