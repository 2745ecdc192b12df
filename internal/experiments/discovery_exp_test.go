package experiments

import "testing"

func TestE21Discovery(t *testing.T) {
	_, res := run[*E21Result](t, "E21")
	if len(res.Recall) == 0 {
		t.Fatal("no iterations")
	}
	final := len(res.Recall) - 1
	if res.Recall[final] < 0.8 {
		t.Errorf("final discovery recall = %f", res.Recall[final])
	}
	if res.Precision[final] < 0.95 {
		t.Errorf("final discovery precision = %f", res.Precision[final])
	}
	// Recall non-decreasing.
	for i := 1; i < len(res.Recall); i++ {
		if res.Recall[i] < res.Recall[i-1] {
			t.Error("recall must not decrease")
		}
	}
	// The ablation demonstrates the filter's value.
	if res.LooseNoiseAdmitted == 0 {
		t.Error("filterless crawler should admit noise (ablation inert otherwise)")
	}
	// Discovered corpus integrates well.
	if res.HandoffLinkageF1 < 0.7 {
		t.Errorf("hand-off linkage F1 = %f", res.HandoffLinkageF1)
	}
}
