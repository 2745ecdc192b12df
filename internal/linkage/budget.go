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
	"sort"

	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// PairStream is a deduplicated candidate collection consumed in
// emission order. It may live on disk (the blocking engine's spilled
// CandidateSet) and therefore offers no random access; a materialised
// pair slice reaches the matcher through PairSlice.
type PairStream interface {
	// Len returns the number of candidate pairs.
	Len() int
	// EmitPairs streams the candidates in emission order, stopping
	// early when emit returns false.
	EmitPairs(emit func(data.Pair) bool)
	// RecordIDs returns the distinct record IDs the candidates
	// reference (a superset is permitted).
	RecordIDs() []string
}

// PairSlice adapts a materialised pair slice to PairStream.
type PairSlice []data.Pair

// Len implements PairStream.
func (s PairSlice) Len() int { return len(s) }

// EmitPairs implements PairStream.
func (s PairSlice) EmitPairs(emit func(data.Pair) bool) {
	for _, p := range s {
		if !emit(p) {
			return
		}
	}
}

// RecordIDs implements PairStream.
func (s PairSlice) RecordIDs() []string {
	seen := make(map[string]bool, 2*len(s))
	out := make([]string, 0, 2*len(s))
	add := func(id string) {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	for _, p := range s {
		add(p.A)
		add(p.B)
	}
	sort.Strings(out)
	return out
}

// matchBatch is the matcher's scoring-window size: decoded pairs in
// flight are bounded by it, so a spilled candidate stream reaches the
// matcher without ever existing as a slice.
const matchBatch = 1 << 16

// MatchStreamCtx scores every pair of a candidate stream:
// MatchBudgetedCtx with no budget.
func MatchStreamCtx(ctx context.Context, d *data.Dataset, src PairStream, m Matcher, workers int, reg *obs.Registry) ([]data.ScoredPair, error) {
	out, _, err := MatchBudgetedCtx(ctx, d, src, m, 0, workers, reg)
	return out, err
}

// MatchBudgetedCtx scores the candidates of src front-first and returns
// the accepted pairs sorted by descending score then pair order, plus
// how many comparisons ran. The stream is consumed through EmitPairs in
// batches of at most matchBatch decoded pairs, each scored in parallel;
// the final ordering is total, so neither batching nor the worker count
// can change the output. The scoring pass observes ctx at chunk
// boundaries, and a cancellation or a recovered matcher panic is
// returned as an error. A nil ctx never cancels.
//
// budget > 0 stops the run after that many comparisons — the budgeted
// progressive matcher; consumed is less than budget only when the
// stream is shorter. budget <= 0 means unlimited.
//
// Matchers implementing IDIndexPreparer get their feature cache warmed:
// once from the stream's record IDs on an unlimited run, per batch from
// the batch's own record IDs on a budgeted one, so a small budget over
// a huge stream never tokenises the full corpus. Wrap the matcher in
// NoIndex to opt out.
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
	size := min(max(n, 1), matchBatch) // pairs per scoring batch
	warmer, _ := m.(IDIndexPreparer)
	if warmer != nil && !budgeted {
		warmer.PrepareIndexIDs(d, src.RecordIDs())
	}
	batch := make([]data.Pair, 0, size)
	scores := make([]float64, size)
	keep := make([]bool, size)
	cfg := parallel.Config{Workers: workers, Obs: reg, Ctx: ctx}
	// Accepted pairs are kept per batch at their exact size and joined
	// once: growing one slice by append re-copies a multi-million-pair
	// result several times over, in ever larger fresh allocations.
	var parts [][]data.ScoredPair
	flush := func() bool {
		if len(batch) == 0 {
			return true
		}
		if warmer != nil && budgeted {
			warmer.PrepareIndexIDs(d, PairSlice(batch).RecordIDs())
		}
		if err = scoreBatch(cfg, d, batch, m, scores, keep); err != nil {
			return false
		}
		kept := 0
		for _, k := range keep[:len(batch)] {
			if k {
				kept++
			}
		}
		part := make([]data.ScoredPair, 0, kept)
		for i, p := range batch {
			if keep[i] {
				part = append(part, data.ScoredPair{Pair: p, Score: scores[i]})
			}
		}
		parts = append(parts, part)
		batch = batch[:0]
		return true
	}
	src.EmitPairs(func(p data.Pair) bool {
		batch = append(batch, p)
		consumed++
		if budgeted && consumed == budget {
			return false
		}
		return len(batch) < size || flush()
	})
	if err == nil {
		flush()
	}
	if err != nil {
		return nil, 0, err
	}
	matched = slices.Concat(parts...)
	reg.Counter("matching.comparisons").Add(int64(consumed))
	reg.Counter("matching.matched").Add(int64(len(matched)))
	if budget > 0 {
		reg.Gauge("matching.budget").Set(float64(budget))
		reg.Gauge("matching.budget_consumed").Set(float64(consumed))
		if consumed > 0 {
			reg.Gauge("matching.budget_match_rate").Set(float64(len(matched)) / float64(consumed))
		}
	}
	sortScored(matched)
	return matched, consumed, nil
}

// scoreBatch runs the matcher over one batch in parallel, writing each
// pair's score and decision to its own slot. Pairs referencing unknown
// records are never kept.
func scoreBatch(cfg parallel.Config, d *data.Dataset, batch []data.Pair, m Matcher, scores []float64, keep []bool) error {
	return parallel.ForEach(cfg, len(batch), func(i int) {
		a, b := d.Record(batch[i].A), d.Record(batch[i].B)
		if a == nil || b == nil {
			keep[i] = false
			return
		}
		scores[i], keep[i] = m.Match(a, b)
	})
}

// sortScored orders matches by descending score, then pair order — a
// total order, so the result is independent of how they were produced.
func sortScored(ps []data.ScoredPair) {
	slices.SortFunc(ps, func(x, y data.ScoredPair) int {
		if c := cmp.Compare(y.Score, x.Score); c != 0 {
			return c
		}
		if c := cmp.Compare(x.A, y.A); c != 0 {
			return c
		}
		return cmp.Compare(x.B, y.B)
	})
}
