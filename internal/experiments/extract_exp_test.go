package experiments

import "testing"

func TestE22WrapperBrittleness(t *testing.T) {
	_, res := run[*E22Result](t, "E22")
	if res.InducedPrecision < 0.95 || res.InducedRecall < 0.95 {
		t.Errorf("induced wrapper P=%f R=%f", res.InducedPrecision, res.InducedRecall)
	}
	// Recall decays monotonically with the renamed fraction.
	prev := res.InducedRecall
	for _, frac := range res.Fractions {
		cur := res.StaleRecall[frac]
		if cur > prev+1e-9 {
			t.Errorf("brittleness curve not monotone at %f: %f > %f", frac, cur, prev)
		}
		prev = cur
	}
	// The heaviest redesign breaks most extraction.
	if res.StaleRecall[res.Fractions[len(res.Fractions)-1]] > 0.5 {
		t.Errorf("heavy redesign recall = %f, want < 0.5", res.StaleRecall[0.8])
	}
	// Re-induction recovers.
	if res.ReinducedRecall < 0.95 {
		t.Errorf("re-induced recall = %f", res.ReinducedRecall)
	}
}
