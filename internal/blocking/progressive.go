package blocking

import (
	"slices"
	"sort"

	"repro/internal/data"
)

// ProgressiveOrder reorders the collection's blocks into progressive
// emission order for budget-limited (anytime) entity resolution: pairs
// in decreasing expected-match likelihood, so a run cut off after any
// comparison budget has found as many true matches as possible. The
// heuristic follows the progressive-ER literature — smaller blocks
// first (rare keys are more discriminative), ties by key, in-block
// input order, a pair promoted by its best (smallest) block — and
// singleton blocks (no pairs) are dropped. The derived collection is
// for pair emission only: its keys are no longer sorted, so it must not
// feed key-ordered consumers like meta-blocking. Because candidate
// generation dedups to first emission, CandidateSet on the result
// yields the progressive stream through whichever strategy the budget
// selects (in-memory or spilled) — both byte-identical; Standard.Ranked
// is the same stream, always in memory.
func (x *Indexed) ProgressiveOrder() *Indexed {
	if x.eng.sink.failed() {
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
	out := &Indexed{eng: x.eng, keys: make([]string, len(order)), rows: make([][]uint32, len(order))}
	for i, bi := range order {
		out.keys[i] = x.keys[bi]
		out.rows[i] = x.rows[bi]
	}
	return out
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
