package experiments

import (
	"math/rand"

	"repro/internal/blocking"
	"repro/internal/data"
)

// E20Result is the structured output of E20.
type E20Result struct {
	Budgets     []int     // comparison budgets (absolute)
	Progressive []float64 // recall of truth pairs within budget
	Random      []float64 // same pairs, shuffled order
	TotalPairs  int
}

// E20 — progressive entity resolution: recall of true matches within a
// comparison budget, progressive (small-blocks-first) order vs random
// order over the same candidate set.
func E20(seed int64) (*Table, *E20Result, error) {
	web := dirtyWeb(seed, 120, 14, 1)
	records := web.Dataset.Records()
	truth := web.Dataset.GroundTruthClusters().Pairs()

	eng := blocking.NewEngineOpts(records, blocking.Opts{})
	ordered := blocking.Standard{Key: blocking.TokenKey("title"), MaxBlock: 200}.Ranked(eng).Pairs()
	if err := eng.Err(); err != nil {
		return nil, nil, err
	}
	shuffled := append([]data.Pair(nil), ordered...)
	rand.New(rand.NewSource(seed)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})

	res := &E20Result{TotalPairs: len(ordered)}
	fractions := []float64{0.02, 0.05, 0.1, 0.25, 0.5, 1.0}
	for _, f := range fractions {
		b := int(f * float64(len(ordered)))
		if b < 1 {
			b = 1
		}
		res.Budgets = append(res.Budgets, b)
	}
	res.Progressive = blocking.RecallCurve(ordered, truth, append([]int(nil), res.Budgets...))
	res.Random = blocking.RecallCurve(shuffled, truth, append([]int(nil), res.Budgets...))

	tab := &Table{
		ID: "E20", Title: "progressive ER: truth-pair recall vs comparison budget",
		Columns: []string{"budget", "of total", "progressive", "random order"},
	}
	for i, b := range res.Budgets {
		tab.Rows = append(tab.Rows, []string{
			d1(b), f3(float64(b) / float64(res.TotalPairs)),
			f4(res.Progressive[i]), f4(res.Random[i]),
		})
	}
	tab.Notes = "small-blocks-first ordering should dominate random order at every partial budget"
	return tab, res, nil
}
