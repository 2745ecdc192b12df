package blocking

import (
	"sort"

	"repro/internal/data"
	"repro/internal/parallel"
)

// SortedNeighborhood implements the sorted-neighbourhood method: records
// are sorted by a sorting key and every pair within a sliding window of
// size Window becomes a candidate. MultiPass runs one pass per key
// function and unions the candidates, the standard remedy for key
// corruption. Key extraction runs across workers; window pairs dedup
// through packed codes, preserving the sequential emission order.
type SortedNeighborhood struct {
	Keys   []KeyFunc // one pass per key; each must yield ≤1 key
	Window int       // window size (≥2); default 5
	// Workers bounds the key-extraction workers (0 = NumCPU). Output
	// is identical for any value.
	Workers int
}

// Candidates implements Blocker.
func (sn SortedNeighborhood) Candidates(records []*data.Record) []data.Pair {
	w := sn.Window
	if w < 2 {
		w = 5
	}
	cfg := parallel.Config{Workers: sn.Workers}
	eng := NewEngineOpts(records, Opts{Workers: sn.Workers})
	eng.sink.must()
	var codes []uint64
	for _, key := range sn.Keys {
		type entry struct {
			k    string
			rank uint32
		}
		keyed := parallel.Must(parallel.MapSlice(cfg, records, func(r *data.Record) []string { return key(r) }))
		entries := make([]entry, 0, len(records))
		for i := range records {
			ks := keyed[i]
			if len(ks) == 0 || ks[0] == "" {
				continue
			}
			entries = append(entries, entry{k: ks[0], rank: eng.ranks[i]})
		}
		// Rank order is ID order, so the (key, id) sort of the
		// sequential implementation is exactly this.
		sort.Slice(entries, func(i, j int) bool {
			if entries[i].k != entries[j].k {
				return entries[i].k < entries[j].k
			}
			return entries[i].rank < entries[j].rank
		})
		for i := range entries {
			for j := i + 1; j < len(entries) && j < i+w; j++ {
				codes = append(codes, pairCode(entries[i].rank, entries[j].rank))
			}
		}
	}
	return (&CandidateSet{ids: eng.rk.ids, codes: dedupCodesStable(codes)}).Pairs()
}

// Canopy implements canopy clustering with a cheap similarity: records
// are greedily grouped under canopies using Sim; pairs within a canopy
// are candidates. Loose < Tight thresholds follow McCallum et al.:
// records within Loose of a centre join its canopy (and may join
// others); records within Tight are removed from further consideration
// as centres. The greedy sweep is inherently sequential; only the pair
// dedup runs on packed codes.
type Canopy struct {
	Sim   func(a, b *data.Record) float64
	Loose float64 // canopy-membership threshold (lower)
	Tight float64 // removal threshold (higher)
}

// Candidates implements Blocker.
func (c Canopy) Candidates(records []*data.Record) []data.Pair {
	eng := NewEngineOpts(records, Opts{Workers: 1})
	eng.sink.must()
	rank := make(map[string]uint32, len(records))
	for i, r := range records {
		rank[r.ID] = eng.ranks[i]
	}
	remaining := append([]*data.Record(nil), records...)
	var codes []uint64
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
				codes = append(codes, pairCode(rank[canopy[i].ID], rank[canopy[j].ID]))
			}
		}
	}
	return (&CandidateSet{ids: eng.rk.ids, codes: dedupCodesStable(codes)}).Pairs()
}
