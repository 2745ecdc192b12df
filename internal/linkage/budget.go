package linkage

// The matching loop: one kernel consuming a candidate stream in bounded
// batches, optionally stopping at a comparison budget — the
// pay-as-you-go consumption side of a ranked candidate stream. The
// scarce resource at web scale is comparisons, not candidate pairs: a
// budgeted run consumes only the stream's prefix, so the value of the
// budget depends entirely on how well the stream is ordered
// (progressive blocking, rank fusion).

import (
	"cmp"
	"context"
	"slices"

	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// PairStream is a candidate collection consumed in emission order as
// rank codes over an ID table. It may live on disk
// (the blocking engine's spilled CandidateSet) and therefore offers no
// random access; a materialised pair slice reaches the matcher through
// PairSlice.
type PairStream interface {
	// Len returns the number of candidate pairs.
	Len() int
	// IDs returns the rank table: ascending, distinct record IDs, a
	// superset of the IDs the candidates reference.
	IDs() []string
	// EmitCodes streams the candidates in emission order as codes
	// rank(A)<<32 | rank(B) over IDs(), in each pair's own orientation,
	// stopping early when emit returns false. It returns the first
	// error reading the candidates.
	EmitCodes(emit func(code uint64) bool) error
}

// PairSlice adapts a materialised pair slice to PairStream. Pairs keep
// their orientation and repeats.
type PairSlice []data.Pair

// Len implements PairStream.
func (s PairSlice) Len() int { return len(s) }

// IDs implements PairStream: the distinct IDs the pairs reference.
func (s PairSlice) IDs() []string {
	ids := make([]string, 0, 2*len(s))
	for _, p := range s {
		ids = append(ids, p.A, p.B)
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// EmitCodes implements PairStream.
func (s PairSlice) EmitCodes(emit func(code uint64) bool) error {
	return s.ranked().EmitCodes(emit)
}

// ranked returns s with its rank table built, so that the table is
// sorted once for both IDs and EmitCodes.
func (s PairSlice) ranked() rankedPairs {
	ids := s.IDs()
	rank := make(map[string]uint64, len(ids))
	for r, id := range ids {
		rank[id] = uint64(r)
	}
	return rankedPairs{pairs: s, ids: ids, rank: rank}
}

// rankedPairs is a PairSlice and its rank table.
type rankedPairs struct {
	pairs PairSlice
	ids   []string
	rank  map[string]uint64
}

// Len, IDs and EmitCodes implement PairStream.
func (s rankedPairs) Len() int      { return len(s.pairs) }
func (s rankedPairs) IDs() []string { return s.ids }

func (s rankedPairs) EmitCodes(emit func(code uint64) bool) error {
	for _, p := range s.pairs {
		if !emit(s.rank[p.A]<<32 | s.rank[p.B]) {
			return nil
		}
	}
	return nil
}

// matchBatch is the matcher's scoring-window size: codes in flight are
// bounded by it, so a spilled candidate stream reaches the matcher
// without ever existing as a slice.
const matchBatch = 1 << 16

// MatchStreamCtx scores every pair of a candidate stream:
// MatchBudgetedCtx with no budget.
func MatchStreamCtx(ctx context.Context, d *data.Dataset, src PairStream, m Matcher, workers int, reg *obs.Registry) ([]data.ScoredPair, error) {
	out, _, err := MatchBudgetedCtx(ctx, d, src, m, 0, workers, reg)
	return out, err
}

// scoredCode is one accepted candidate while matching runs: its score
// and its pair code.
type scoredCode struct {
	score float64
	code  uint64
}

// sortScoredCodes joins the accepted candidates of parts in output
// order: descending score (cmp.Compare's order: −0 equals +0, NaNs are
// equal and lowest), then ascending code. Ranks ascend with the IDs, so
// ascending codes are pairs in ascending (A, B) string order. A
// counting pass over rank(A) places every entry in its rank's run,
// releasing each part once it is placed; each run is sorted by code,
// and a stable sort on the score finishes the order.
func sortScoredCodes(parts [][]scoredCode, ranks int) []scoredCode {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n == 0 {
		return nil
	}
	// end[r+1] first counts rank r's entries; the prefix sum makes end[r]
	// the start of rank r's run, and placing the entries its end.
	end := make([]int, ranks+1)
	for _, p := range parts {
		for _, s := range p {
			end[s.code>>32+1]++
		}
	}
	for r := 1; r <= ranks; r++ {
		end[r] += end[r-1]
	}
	out := make([]scoredCode, n)
	for i, p := range parts {
		for _, s := range p {
			a := s.code >> 32
			out[end[a]] = s
			end[a]++
		}
		parts[i] = nil
	}
	byCode := func(x, y scoredCode) int { return cmp.Compare(x.code, y.code) }
	lo := 0
	for _, hi := range end[:ranks] {
		if hi-lo > 1 {
			slices.SortStableFunc(out[lo:hi], byCode)
		}
		lo = hi
	}
	slices.SortStableFunc(out, func(x, y scoredCode) int { return cmp.Compare(y.score, x.score) })
	return out
}

// MatchBudgetedCtx scores the candidates of src front-first and returns
// the accepted pairs sorted by descending score then pair order, plus
// how many comparisons ran. The stream is consumed through EmitCodes
// in batches of at most matchBatch codes, each scored in parallel; the
// final ordering is total, so neither batching nor the worker count
// can change the output. Each rank's record is looked up once — all of
// them up front on an unlimited run, on a budgeted one the first time a
// batch references it — and pairs stay codes until the sorted result is
// decoded. The scoring pass observes ctx at chunk
// boundaries, and a cancellation, a recovered matcher panic or an
// error reading src is returned as an error. A nil ctx never cancels.
//
// budget > 0 stops the run after that many comparisons — the budgeted
// progressive matcher; consumed is less than budget only when the
// stream is shorter. budget <= 0 means unlimited.
//
// A matcher that scores through a RecordComparator gets the
// comparator's feature cache warmed on workers goroutines: once over
// the records of src.IDs() on an unlimited run, per batch over the
// batch's own records on a budgeted one, so a small budget over a huge
// stream never tokenises the full corpus. Wrap the matcher in NoIndex
// to opt out.
//
// The registry records matching.comparisons and matching.matched, and
// under a budget the recall-at-budget inputs: gauges matching.budget,
// matching.budget_consumed and matching.budget_match_rate (matched ÷
// consumed — the observable proxy for recall when truth is unknown).
func MatchBudgetedCtx(ctx context.Context, d *data.Dataset, src PairStream, m Matcher, budget, workers int, reg *obs.Registry) (matched []data.ScoredPair, consumed int, err error) {
	reg = obs.OrDefault(reg)
	n := src.Len()
	budgeted := budget > 0 && budget < n
	if budgeted {
		n = budget
	}
	size := min(max(n, 1), matchBatch) // codes per scoring batch
	if s, ok := src.(PairSlice); ok {
		src = s.ranked() // IDs and EmitCodes share one rank table
	}
	ids := src.IDs()
	warmer := comparatorOf(m)
	cfg := parallel.Config{Workers: workers, Obs: reg, Ctx: ctx}
	// recs[r] is rank r's record (nil when absent from d). An unlimited
	// run resolves every rank up front and warms the cache over them; a
	// budgeted one resolves a rank when a batch first references it, and
	// stamp[r] is the last batch that referenced r, 0 for none yet.
	recs := make([]*data.Record, len(ids))
	var stamp []int32
	if budgeted {
		stamp = make([]int32, len(ids))
	} else {
		if err := parallel.ForEach(cfg, len(ids), func(r int) { recs[r] = d.Record(ids[r]) }); err != nil {
			return nil, 0, err
		}
		PrepareComparatorIndex(warmer, recs, workers)
	}
	var batchNo int32
	var ranks []uint32 // a budgeted batch's distinct ranks, when warming its records
	var batchRecs []*data.Record
	batch := make([]uint64, 0, size)
	scores := make([]float64, size)
	keep := make([]bool, size)
	// Accepted pairs are kept per batch at their exact size and joined
	// once: growing one slice by append re-copies a multi-million-pair
	// result several times over, in ever larger fresh allocations.
	var parts [][]scoredCode
	flush := func() bool {
		if len(batch) == 0 {
			return true
		}
		if budgeted {
			batchNo++
			ranks = ranks[:0]
			for _, code := range batch {
				for _, r := range [2]uint32{uint32(code >> 32), uint32(code)} {
					if stamp[r] == batchNo {
						continue
					}
					if stamp[r] == 0 {
						recs[r] = d.Record(ids[r])
					}
					stamp[r] = batchNo
					if warmer != nil {
						ranks = append(ranks, r)
					}
				}
			}
			if warmer != nil {
				slices.Sort(ranks)
				batchRecs = batchRecs[:0]
				for _, r := range ranks {
					batchRecs = append(batchRecs, recs[r])
				}
				PrepareComparatorIndex(warmer, batchRecs, workers)
			}
		}
		err = parallel.ForEach(cfg, len(batch), func(i int) {
			a, b := recs[batch[i]>>32], recs[uint32(batch[i])]
			if a == nil || b == nil {
				keep[i] = false
				return
			}
			scores[i], keep[i] = m.Match(a, b)
		})
		if err != nil {
			return false
		}
		kept := 0
		for _, k := range keep[:len(batch)] {
			if k {
				kept++
			}
		}
		part := make([]scoredCode, 0, kept)
		for i, code := range batch {
			if keep[i] {
				part = append(part, scoredCode{score: scores[i], code: code})
			}
		}
		parts = append(parts, part)
		batch = batch[:0]
		return true
	}
	rerr := src.EmitCodes(func(code uint64) bool {
		batch = append(batch, code)
		consumed++
		if budgeted && consumed == budget {
			return false
		}
		return len(batch) < size || flush()
	})
	if err == nil {
		err = rerr
	}
	if err == nil {
		flush()
	}
	if err != nil {
		return nil, 0, err
	}
	all := sortScoredCodes(parts, len(ids))
	if len(all) > 0 {
		matched = make([]data.ScoredPair, len(all))
		for i, s := range all {
			matched[i] = data.ScoredPair{Pair: data.Pair{A: ids[s.code>>32], B: ids[uint32(s.code)]}, Score: s.score}
		}
	}
	reg.Counter("matching.comparisons").Add(int64(consumed))
	reg.Counter("matching.matched").Add(int64(len(matched)))
	if budget > 0 {
		reg.Gauge("matching.budget").Set(float64(budget))
		reg.Gauge("matching.budget_consumed").Set(float64(consumed))
		if consumed > 0 {
			reg.Gauge("matching.budget_match_rate").Set(float64(len(matched)) / float64(consumed))
		}
	}
	return matched, consumed, nil
}
