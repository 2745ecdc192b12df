package experiments

import "testing"

func TestE26Serving(t *testing.T) {
	tab, res := run[*E26Result](t, "E26")
	if len(res.Rows) != 3 {
		t.Fatalf("%d load levels, want 3", len(res.Rows))
	}
	wantClients := []int{1, 8, 64}
	for i, row := range res.Rows {
		if row.Clients != wantClients[i] {
			t.Errorf("row %d clients = %d, want %d", i, row.Clients, wantClients[i])
		}
		if row.Errors != 0 {
			t.Errorf("%d clients: %d request errors, want 0", row.Clients, row.Errors)
		}
		if row.Requests != row.Clients*50 {
			t.Errorf("%d clients: %d requests, want %d", row.Clients, row.Requests, row.Clients*50)
		}
		if row.P50 <= 0 || row.P99 < row.P50 {
			t.Errorf("%d clients: quantiles out of order (p50 %v, p99 %v)", row.Clients, row.P50, row.P99)
		}
		if row.QPS <= 0 {
			t.Errorf("%d clients: qps = %v", row.Clients, row.QPS)
		}
	}
	if !res.IdenticalAfterReindex {
		t.Error("search response changed across an identical-data reindex")
	}
	if len(tab.Rows) != len(res.Rows) {
		t.Errorf("table rows %d != result rows %d", len(tab.Rows), len(res.Rows))
	}
}
