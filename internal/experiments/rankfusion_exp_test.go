package experiments

import "testing"

// TestE25FusedDominanceShape runs the committed E25 configuration: the
// experiment itself errors unless the fused ordering matches or beats
// every single blocker and the plain union at every budget, the fused
// stream is byte-identical across the workers × shards grid, and the
// spilled stream replays the in-memory order — so a clean return is
// the acceptance check. The shape assertions below pin the table and
// baseline schema BENCH_progressive.json commits.
func TestE25FusedDominanceShape(t *testing.T) {
	tab, res := run[*E25Result](t, "E25")
	if !res.Identical || !res.SpillIdentical {
		t.Fatalf("identity flags = %v/%v, want true/true", res.Identical, res.SpillIdentical)
	}
	if len(res.Budgets) == 0 || len(tab.Rows) != len(res.Budgets) {
		t.Fatalf("table has %d rows for %d budgets", len(tab.Rows), len(res.Budgets))
	}
	for i, row := range tab.Rows {
		if len(row) != len(tab.Columns) {
			t.Fatalf("row %d has %d cells for %d columns", i, len(row), len(tab.Columns))
		}
	}
	for i := 1; i < len(res.Budgets); i++ {
		if res.Budgets[i] <= res.Budgets[i-1] {
			t.Fatalf("budgets not increasing: %v", res.Budgets)
		}
		if res.Fused[i] < res.Fused[i-1] {
			t.Fatalf("fused recall not monotone: %v", res.Fused)
		}
	}
	if last := res.Fused[len(res.Fused)-1]; last != 1 {
		t.Errorf("full-budget fused recall = %v, want 1 (fused stream covers the union)", last)
	}
	if res.TotalPairs == 0 || res.TruthPairs == 0 || len(res.Names) != 5 {
		t.Fatalf("result underpopulated: %+v", res)
	}
	for _, name := range res.Names {
		if len(res.Singles[name]) != len(res.Budgets) {
			t.Fatalf("single %q curve has %d points for %d budgets",
				name, len(res.Singles[name]), len(res.Budgets))
		}
	}
}
