package experiments

import "testing"

func TestE20ProgressiveER(t *testing.T) {
	_, res := run[*E20Result](t, "E20")
	if len(res.Budgets) == 0 || res.TotalPairs == 0 {
		t.Fatal("empty result")
	}
	// Progressive dominates random at every partial budget.
	for i := range res.Budgets {
		if res.Budgets[i] >= res.TotalPairs {
			continue // full budget: identical by construction
		}
		if res.Progressive[i] <= res.Random[i] {
			t.Errorf("budget %d: progressive %f must beat random %f",
				res.Budgets[i], res.Progressive[i], res.Random[i])
		}
	}
	// Both curves are monotone non-decreasing.
	for i := 1; i < len(res.Budgets); i++ {
		if res.Progressive[i] < res.Progressive[i-1] || res.Random[i] < res.Random[i-1] {
			t.Error("recall curves must be monotone")
		}
	}
	// Progressive reaches most of its recall early: at the 10% budget it
	// should hold >= 70% of the full-budget recall.
	full := res.Progressive[len(res.Progressive)-1]
	var at10 float64
	for i, b := range res.Budgets {
		if float64(b) >= 0.1*float64(res.TotalPairs) {
			at10 = res.Progressive[i]
			break
		}
	}
	if at10 < 0.7*full {
		t.Errorf("10%% budget recall %f, full %f: early concentration missing", at10, full)
	}
}
