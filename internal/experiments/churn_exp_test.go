package experiments

import "testing"

func TestE28ChurnStreamMatchesFromScratch(t *testing.T) {
	tab, res := run[*E28Result](t, "E28")
	if len(res.Checkpoints) < 3 {
		t.Fatalf("%d checkpoints, want ≥3", len(res.Checkpoints))
	}
	if res.Deletes == 0 {
		t.Fatal("churn applied no deletes")
	}
	// The acceptance bar: the mutable stream's linkage quality tracks a
	// from-scratch run over the live records at every checkpoint.
	if res.MaxGap > 0.01 {
		t.Errorf("max stream-vs-batch F1 gap = %.4f, want ≤ 0.01", res.MaxGap)
	}
	for i, f1 := range res.StreamF1 {
		if f1 <= 0 || f1 > 1 {
			t.Errorf("checkpoint %d: stream F1 = %v out of range", i, f1)
		}
	}
	if len(tab.Rows) != len(res.Checkpoints) {
		t.Errorf("table rows %d != checkpoints %d", len(tab.Rows), len(res.Checkpoints))
	}
}
