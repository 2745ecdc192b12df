package datagen

import (
	"sort"
	"testing"

	"repro/internal/blocking"
)

func TestScaleRecordsDeterministicAndShaped(t *testing.T) {
	cfg := ScaleConfig{Seed: 7, NumRecords: 1000, GroupSize: 8}
	a, b := ScaleRecords(cfg), ScaleRecords(cfg)
	if len(a) != 1000 {
		t.Fatalf("got %d records, want 1000", len(a))
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].String() != b[i].String() {
			t.Fatalf("record %d differs between identical-config runs", i)
		}
	}
	if c := ScaleRecords(ScaleConfig{Seed: 8, NumRecords: 1000, GroupSize: 8}); c[0].String() == a[0].String() && c[5].String() == a[5].String() {
		t.Fatal("different seeds produced identical records")
	}
	// IDs must not arrive in sorted order (the corpus exercises the
	// engine's rank/ID-order distinction).
	ids := make([]string, len(a))
	for i, r := range a {
		ids[i] = r.ID
	}
	if sort.StringsAreSorted(ids) {
		t.Fatal("record IDs are sorted in input order")
	}
	// After purging the vocabulary blocks, pairs come from the unique
	// group tokens alone: NumRecords/GroupSize groups of C(8,2) pairs.
	idx := blocking.NewEngineOpts(a, blocking.Opts{Workers: 2}).Blocks(blocking.TokenKey("title")).Purge(cfg.GroupSize)
	want := (1000 / 8) * (8 * 7 / 2)
	if got := idx.CandidateSet().Len(); got != want {
		t.Fatalf("purged pair count = %d, want %d", got, want)
	}
}
