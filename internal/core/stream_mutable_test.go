package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/data"
	"repro/internal/source"
	"repro/internal/source/faults"
)

func churnFleet(d *data.Dataset, seed int64) ([]source.DeltaSource, map[string]int, map[string]bool) {
	return source.ChurnSources(d, source.ChurnConfig{Seed: seed, UpdateRate: 0.15, DeleteRate: 0.1})
}

// TestStreamDeltasRetractDeletedRecords is the ghost-claims gate: after
// a churn stream drains, no deleted record may appear in the dataset,
// the clustering, or any published entity — online fusion only ever
// sees claims from live records.
func TestStreamDeltasRetractDeletedRecords(t *testing.T) {
	d := streamTestWeb(41, 50, 6)
	fleet, totals, deleted := churnFleet(d, 5)
	if len(deleted) == 0 {
		t.Fatal("churn produced no deletions")
	}

	var last *Snapshot
	s, err := NewStream(StreamConfig{EpochSize: 10, PublishEvery: 1},
		func(snap *Snapshot) { last = snap })
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunDeltas(context.Background(), fleet, totals); err != nil {
		t.Fatal(err)
	}

	if s.Deleted() != int64(len(deleted)) {
		t.Errorf("Deleted() = %d, want %d", s.Deleted(), len(deleted))
	}
	for id := range deleted {
		if s.Dataset().Record(id) != nil {
			t.Errorf("deleted record %s still in dataset", id)
		}
	}
	for _, cl := range s.Clusters() {
		for _, id := range cl {
			if deleted[id] {
				t.Errorf("deleted record %s still clustered", id)
			}
		}
	}
	if last == nil {
		t.Fatal("no snapshot published")
	}
	for _, e := range last.Entities() {
		for _, id := range e.Records {
			if deleted[id] {
				t.Errorf("deleted record %s still cited by entity %s", id, e.ID)
			}
		}
	}
	// Accuracy feedback ran over live claims only: every estimate is a
	// valid Laplace-smoothed rate.
	for src, a := range s.Accuracy() {
		if a <= 0 || a >= 1 {
			t.Errorf("accuracy[%s] = %v outside (0,1)", src, a)
		}
	}
	// Nor does the linker's blocking index: no posting list still holds a
	// deleted record.
	for k, ids := range s.inc.Postings() {
		for _, id := range ids {
			if deleted[id] {
				t.Errorf("deleted record %s still posted under %q", id, k)
			}
		}
	}
}

// TestStreamDeltasDeterministicAcrossWorkers pins that the mutable
// path's output — including reclustering after deletes and online
// fusion over the churned claims — is byte-identical for any fusion
// worker count, with and without mangled delta faults.
func TestStreamDeltasDeterministicAcrossWorkers(t *testing.T) {
	d := streamTestWeb(42, 40, 6)
	cleanFleet, cleanTotals, _ := churnFleet(d, 6)
	mcfg := faults.DeltaConfig{Seed: 11, DupDeleteRate: 0.3, EarlyDeleteRate: 0.2, UpdateStormRate: 0.2}
	mangledTotals := map[string]int{}
	for _, s := range cleanFleet {
		st := s.(*source.DeltaStatic)
		mangledTotals[st.Src.ID] = faults.MangledTotal(st.Src.ID, st.Log, mcfg)
	}

	run := func(workers int, mangled bool) string {
		s, err := NewStream(StreamConfig{EpochSize: 9, PublishEvery: 2, Workers: workers}, nil)
		if err != nil {
			t.Fatal(err)
		}
		fleet, totals := cleanFleet, cleanTotals
		if mangled {
			fleet, totals = faults.WrapDeltasAll(cleanFleet, mcfg), mangledTotals
		}
		if err := s.RunDeltas(context.Background(), fleet, totals); err != nil {
			t.Fatal(err)
		}
		return streamFingerprint(t, s)
	}

	cleanWant := run(1, false)
	mangledWant := run(1, true)
	for _, workers := range []int{2, 8} {
		if got := run(workers, false); got != cleanWant {
			t.Errorf("clean run at workers=%d differs from workers=1", workers)
		}
		if got := run(workers, true); got != mangledWant {
			t.Errorf("mangled run at workers=%d differs from workers=1", workers)
		}
	}
	// Mangling is semantics-preserving noise: the live entities agree
	// even though epoch boundaries and comparison counts differ.
	if cleanWant == mangledWant {
		t.Log("note: mangled fingerprint identical to clean (no boundary drift)")
	}
}

// TestStreamKillMidCompactionChaos is the crash gate for a save that
// follows deletes (the name is from when a delete left slots for a
// compaction to sweep): at workers {1,2,8}, killing the process at
// every interesting point of the save of an epoch that applied deletes
// must leave an on-disk state that restores to one of the two encoded
// states — never a torn hybrid — whose stream drains to the same final
// fingerprint as an uninterrupted run; the state saved after the
// deletes restores the crashed stream's posting lists.
func TestStreamKillMidCompactionChaos(t *testing.T) {
	d := streamTestWeb(44, 60, 8)
	fleet, totals, deleted := churnFleet(d, 8)
	if len(deleted) == 0 {
		t.Fatal("churn produced no deletions")
	}
	metas := fleetMetas(fleet)

	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := StreamConfig{EpochSize: 9, PublishEvery: 2, Workers: workers}

			base, err := NewStream(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := base.RunDeltas(context.Background(), fleet, totals); err != nil {
				t.Fatal(err)
			}
			want := streamFingerprint(t, base)

			// Crashing run: drive epochs by hand with Run's cadence, saving
			// after each, until an epoch past the first applies deletes;
			// snapshot the state file right before and right after that
			// epoch's save.
			path := filepath.Join(t.TempDir(), "stream.state")
			ccfg := cfg
			ccfg.StatePath = path
			crashed, err := NewStream(ccfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			str, err := source.NewDeltaStreamer(context.Background(), fleet,
				source.StreamConfig{EpochSize: ccfg.EpochSize, Totals: totals})
			if err != nil {
				t.Fatal(err)
			}
			defer str.Close()
			var preBytes, postBytes []byte
			for ep := range str.C {
				deletes := crashed.Deleted()
				if err := crashed.ApplyDeltas(metas, ep); err != nil {
					t.Fatal(err)
				}
				if crashed.shouldPublish() {
					if _, err := crashed.Publish(context.Background()); err != nil {
						t.Fatal(err)
					}
				}
				if ep.Seq > 0 && crashed.Deleted() > deletes {
					if preBytes, err = os.ReadFile(path); err != nil {
						t.Fatal(err)
					}
				}
				if err := crashed.Save(path); err != nil {
					t.Fatal(err)
				}
				if preBytes != nil {
					if postBytes, err = os.ReadFile(path); err != nil {
						t.Fatal(err)
					}
					break
				}
			}
			if postBytes == nil {
				t.Fatal("the stream drained without an epoch past the first applying deletes")
			}
			crashEpoch := crashed.Epoch()

			// Three kill points: before the save committed (the previous
			// epoch's bytes), mid-save with a stray temp file (those
			// bytes + junk temp), and after (the save's bytes). Each must
			// restore to its epoch and drain to the uninterrupted
			// fingerprint.
			scenarios := []struct {
				name  string
				bytes []byte
				junk  bool
				epoch int
			}{
				{"killed-before-save", preBytes, false, crashEpoch - 1},
				{"killed-mid-save", preBytes, true, crashEpoch - 1},
				{"killed-after-save", postBytes, false, crashEpoch},
			}
			for _, sc := range scenarios {
				t.Run(sc.name, func(t *testing.T) {
					dir := t.TempDir()
					p := filepath.Join(dir, "stream.state")
					if err := os.WriteFile(p, sc.bytes, 0o644); err != nil {
						t.Fatal(err)
					}
					if sc.junk {
						// A crash between temp-write and rename leaves an
						// orphan temp file; it must be invisible to restore.
						if err := os.WriteFile(filepath.Join(dir, ".bdistate-junk"), []byte("torn"), 0o644); err != nil {
							t.Fatal(err)
						}
					}
					resumed, err := LoadStream(p, ccfg, nil)
					if err != nil {
						t.Fatal(err)
					}
					if resumed.Epoch() != sc.epoch {
						t.Fatalf("restored at epoch %d, want %d", resumed.Epoch(), sc.epoch)
					}
					if sc.epoch == crashEpoch && !reflect.DeepEqual(resumed.inc.Postings(), crashed.inc.Postings()) {
						t.Fatalf("restored postings\n%v\nthe crashed stream's\n%v", resumed.inc.Postings(), crashed.inc.Postings())
					}
					if err := resumed.RunDeltas(context.Background(), fleet, totals); err != nil {
						t.Fatal(err)
					}
					if got := streamFingerprint(t, resumed); got != want {
						t.Errorf("resumed output differs from uninterrupted run:\n--- uninterrupted\n%s--- resumed\n%s", want, got)
					}
				})
			}
		})
	}
}
