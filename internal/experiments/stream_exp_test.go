package experiments

import "testing"

func TestE27StreamingBeatsBatchRelink(t *testing.T) {
	tab, res := run[*E27Result](t, "E27")
	if len(res.Checkpoints) < 3 {
		t.Fatalf("%d checkpoints, want ≥3", len(res.Checkpoints))
	}
	for i := 1; i < len(res.Checkpoints); i++ {
		if res.Checkpoints[i] <= res.Checkpoints[i-1] {
			t.Errorf("checkpoints not increasing: %v", res.Checkpoints)
			break
		}
	}
	// The headline claim: processing the whole stream through the
	// velocity path is cheaper than redoing the batch path at every
	// checkpoint.
	if res.CumulativeStream >= res.CumulativeBatch {
		t.Errorf("cumulative stream %v not below batch-relink %v",
			res.CumulativeStream, res.CumulativeBatch)
	}
	if res.Publishes != int64(len(res.Checkpoints)) {
		t.Errorf("publishes = %d, want one per checkpoint (%d)", res.Publishes, len(res.Checkpoints))
	}
	// Streaming must not cost linkage quality.
	if res.FinalF1 < 0.75 {
		t.Errorf("final stream F1 = %.3f, want ≥0.75", res.FinalF1)
	}
	if !res.ResumeIdentical {
		t.Error("crashed-and-resumed stream output differs from the uninterrupted run")
	}
	if len(tab.Rows) != len(res.Checkpoints) {
		t.Errorf("table rows %d != checkpoints %d", len(tab.Rows), len(res.Checkpoints))
	}
}
