package source

import (
	"context"
	"testing"

	"repro/internal/data"
)

// deltaFingerprint renders a delta log compactly for equality checks.
func deltaFingerprint(log []Delta) string {
	s := ""
	for _, d := range log {
		s += d.Op.String() + ":" + d.ID
		if d.Record != nil {
			s += "=" + d.Record.Get("title").Str
		}
		s += ";"
	}
	return s
}

// TestFromDatasetFetchesWithoutAllocating pins FromDataset's logs: one
// upsert per record in the dataset's order, built once, so polling a
// log costs no allocation.
func TestFromDatasetFetchesWithoutAllocating(t *testing.T) {
	d := streamWeb(10)
	ctx := context.Background()
	for _, src := range FromDataset(d) {
		want := d.SourceRecords(src.Meta().ID)
		log, err := src.FetchDeltas(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(log) != len(want) {
			t.Fatalf("%s: log length %d, want %d", src.Meta().ID, len(log), len(want))
		}
		for i, dl := range log {
			if dl.Op != OpUpsert || dl.ID != want[i].ID || dl.Record != want[i] {
				t.Fatalf("%s: delta %d = %v, want upsert of %s", src.Meta().ID, i, dl, want[i].ID)
			}
		}
		if allocs := testing.AllocsPerRun(100, func() { _, _ = src.FetchDeltas(ctx) }); allocs != 0 {
			t.Errorf("%s: FetchDeltas makes %v allocations per call, want 0", src.Meta().ID, allocs)
		}
	}
}

func TestChurnLogShape(t *testing.T) {
	d := streamWeb(14)
	srcs := d.Sources()
	recs := d.SourceRecords(srcs[0].ID)
	cfg := ChurnConfig{Seed: 42, UpdateRate: 0.5, DeleteRate: 0.3}
	log, deleted := Churn(recs, cfg)
	log2, deleted2 := Churn(recs, cfg)
	if deltaFingerprint(log) != deltaFingerprint(log2) || len(deleted) != len(deleted2) {
		t.Fatal("churn log not deterministic")
	}

	// Replay the log into a map: the live set must be recs minus the
	// deleted set, every survivor at its true version.
	live := map[string]*data.Record{}
	seen := map[string]bool{}
	for _, dl := range log {
		switch dl.Op {
		case OpUpsert:
			live[dl.ID] = dl.Record
			seen[dl.ID] = true
		case OpDelete:
			if !seen[dl.ID] {
				t.Fatalf("delete of %s before any upsert", dl.ID)
			}
			delete(live, dl.ID)
		}
	}
	wantLive := 0
	for _, r := range recs {
		if deleted[r.ID] {
			if _, ok := live[r.ID]; ok {
				t.Fatalf("deleted record %s still live at end of log", r.ID)
			}
			continue
		}
		wantLive++
		got, ok := live[r.ID]
		if !ok {
			t.Fatalf("record %s missing from replayed live set", r.ID)
		}
		if got.Get("title").Str != r.Get("title").Str {
			t.Fatalf("record %s ends at corrupted title %q, want %q",
				r.ID, got.Get("title").Str, r.Get("title").Str)
		}
	}
	if len(live) != wantLive {
		t.Fatalf("live set %d, want %d", len(live), wantLive)
	}
	if len(deleted) == 0 {
		t.Fatal("delete rate 0.3 produced no deletions")
	}
	// Update victims must actually arrive corrupted first.
	corrupted := 0
	firstTitle := map[string]string{}
	for _, dl := range log {
		if dl.Op == OpUpsert {
			if _, ok := firstTitle[dl.ID]; !ok {
				firstTitle[dl.ID] = dl.Record.Get("title").Str
			}
		}
	}
	for _, r := range recs {
		if ft := firstTitle[r.ID]; ft != r.Get("title").Str {
			corrupted++
		}
	}
	if corrupted == 0 {
		t.Fatal("update rate 0.5 corrupted no first deliveries")
	}
}
