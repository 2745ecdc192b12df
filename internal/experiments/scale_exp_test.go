package experiments

import "testing"

func TestE24ScaleShape(t *testing.T) {
	tab, res := runOpts[*E24Result](t, "E24", Opts{E24: E24Opts{
		Sizes: []int{10_000}, Workers: []int{1, 2}, SpillDir: t.TempDir(),
	}})
	if len(res.Rows) != 2 || len(tab.Rows) != 2 {
		t.Fatalf("got %d/%d rows, want 2", len(res.Rows), len(tab.Rows))
	}
	for _, row := range res.Rows {
		if !row.Identical {
			t.Fatalf("row %+v: budgeted stream not identical", row)
		}
		if row.SpillRuns == 0 || row.Merges == 0 {
			t.Fatalf("row %+v: spill/merge counters empty", row)
		}
		// The acceptance criterion: the budget is ≤ 25% of the
		// unsharded pair-memory peak.
		if row.BudgetBytes > row.UnshardedPeakBytes/4 {
			t.Fatalf("budget %d exceeds 25%% of unsharded peak %d", row.BudgetBytes, row.UnshardedPeakBytes)
		}
		if row.PeakHeapBytes <= 0 {
			t.Fatalf("row %+v: no heap sample", row)
		}
		if row.Pairs <= 0 || row.RawPairs < row.Pairs {
			t.Fatalf("row %+v: implausible pair counts", row)
		}
	}
	// Both worker counts generated the same candidates.
	if res.Rows[0].Pairs != res.Rows[1].Pairs {
		t.Fatalf("worker counts disagree on pair count: %d vs %d", res.Rows[0].Pairs, res.Rows[1].Pairs)
	}
}
