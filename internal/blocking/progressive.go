package blocking

import (
	"slices"
	"sort"

	"repro/internal/data"
	"repro/internal/obs"
)

// Progressive blocking for budget-limited (anytime) entity resolution:
// instead of emitting all candidate pairs at once, emit them in
// decreasing expected-match-likelihood order, so that a resolution run
// cut off after any comparison budget has found as many true matches
// as possible. The heuristic ordering follows the progressive-ER
// literature: pairs from *smaller* blocks first (rare keys are more
// discriminative), and within a block in insertion order; pairs
// co-occurring in several blocks are promoted by their best (smallest)
// block.
type Progressive struct {
	Key KeyFunc
	// MaxBlock skips blocks larger than this entirely (0 = no limit).
	MaxBlock int
	// Workers bounds the block-building workers (0 = NumCPU). Output
	// is identical for any value.
	Workers int
	// Shards fixes the pair-generation shard count (see Opts.Shards).
	Shards int
	// PairMemBudget, when > 0, bounds the bytes of packed pair codes
	// held in RAM: a stream whose raw codes would exceed it spills
	// sorted runs to disk and StreamSet returns a spill-backed set
	// (see Opts.PairMemBudget).
	PairMemBudget int64
	// SpillDir is the directory for spill runs ("" = os.TempDir()).
	SpillDir string
	// Obs records "blocking." metrics (nil falls back to obs.Default).
	Obs *obs.Registry
}

// ProgressiveOrder reorders the collection's blocks into progressive
// emission order — smaller blocks first, ties by key — and drops
// singleton blocks (they emit no pairs). The derived collection is for
// pair emission only: its keys are no longer sorted, so it must not
// feed key-ordered consumers like meta-blocking. Because candidate
// generation dedups to first emission, CandidateSet on the result
// yields the progressive candidate stream through whichever strategy
// the budget selects (in-memory, sharded, or spilled) — all
// byte-identical.
func (x *Indexed) ProgressiveOrder() *Indexed {
	if x.sink.failed() {
		return x
	}
	order := make([]int, 0, len(x.rows))
	for i, row := range x.rows {
		if len(row) >= 2 {
			order = append(order, i)
		}
	}
	slices.SortFunc(order, func(a, b int) int {
		if la, lb := len(x.rows[a]), len(x.rows[b]); la != lb {
			return la - lb
		}
		if x.keys[a] < x.keys[b] {
			return -1
		}
		return 1
	})
	out := &Indexed{cfg: x.cfg, sink: x.sink, ids: x.ids, shards: x.shards, budget: x.budget, dir: x.dir}
	out.keys = make([]string, len(order))
	out.rows = make([][]uint32, len(order))
	for i, bi := range order {
		out.keys[i] = x.keys[bi]
		out.rows[i] = x.rows[bi]
	}
	return out
}

// StreamSet builds the progressive candidate stream as a packed
// candidate set: blocks ordered smallest-first (ties by key),
// deduplicated to first emission. Under PairMemBudget the set is
// spill-backed — pair state lives in sorted disk runs, EmitPairs
// replays the identical order, and the caller must Close it — so
// progressive ordering works at scales where the materialized stream
// would not fit in RAM. There is no error return: a failure to build
// the set (nil key, spill I/O) panics; use the engine directly and read
// its Err when errors must be handled.
func (p Progressive) StreamSet(records []*data.Record) *CandidateSet {
	e := NewEngineOpts(records, Opts{
		Workers:       p.Workers,
		Shards:        p.Shards,
		PairMemBudget: p.PairMemBudget,
		SpillDir:      p.SpillDir,
		Obs:           p.Obs,
	})
	cs := e.Blocks(p.Key).Purge(p.MaxBlock).ProgressiveOrder().CandidateSet()
	e.sink.must()
	return cs
}

// Stream returns candidate pairs in progressive order, deduplicated.
// Blocks are built by the interned parallel engine; dedup runs on
// packed pair codes preserving the emission order. The pair slice is
// materialized by construction — set PairMemBudget and use StreamSet
// to keep the stream on disk instead.
func (p Progressive) Stream(records []*data.Record) []data.Pair {
	cs := p.StreamSet(records)
	defer cs.Close()
	pairs := cs.Pairs()
	cs.sink.must()
	return pairs
}

// Candidates implements Blocker (the full stream).
func (p Progressive) Candidates(records []*data.Record) []data.Pair {
	return p.Stream(records)
}

// RecallCurve measures, for each budget (number of comparisons), the
// fraction of truth pairs found within the first `budget` pairs of the
// given candidate order — the progressive-ER evaluation curve. The
// budgets slice is not modified and the result is aligned to it
// position-for-position (out[i] is the recall at budgets[i], whatever
// order the caller listed them in). Pair orientation is normalized on
// both sides, so a stream emitting (B, A) still credits a truth pair
// (A, B).
func RecallCurve(ordered []data.Pair, truth []data.Pair, budgets []int) []float64 {
	truthSet := make(map[data.Pair]bool, len(truth))
	for _, p := range truth {
		truthSet[data.NewPair(p.A, p.B)] = true
	}
	if len(truthSet) == 0 {
		return make([]float64, len(budgets))
	}
	// Walk the stream once against an ascending view of the budgets;
	// write each recall through the sort permutation so the output
	// matches the caller's original budget order.
	order := make([]int, len(budgets))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return budgets[order[i]] < budgets[order[j]] })
	out := make([]float64, len(budgets))
	found := 0
	bi := 0
	for bi < len(order) && budgets[order[bi]] <= 0 {
		bi++ // non-positive budgets see no pairs
	}
	for i, p := range ordered {
		if truthSet[data.NewPair(p.A, p.B)] {
			found++
		}
		for bi < len(order) && i+1 == budgets[order[bi]] {
			out[order[bi]] = float64(found) / float64(len(truthSet))
			bi++
		}
	}
	// Budgets beyond the stream length get the final recall.
	final := float64(found) / float64(len(truthSet))
	for ; bi < len(order); bi++ {
		out[order[bi]] = final
	}
	return out
}
