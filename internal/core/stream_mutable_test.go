package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
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
	if s.Tombstones() == 0 {
		t.Log("note: all tombstones were exhumed by reinserts")
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

// TestStreamCompactionNeutral pins that a compaction pass changes no
// observable output: a stream with an aggressive garbage trigger drains
// to the same fingerprint as one that never compacts, and writes the
// same state file byte for byte — compaction shrinks only the
// in-memory posting index.
func TestStreamCompactionNeutral(t *testing.T) {
	d := streamTestWeb(43, 40, 6)
	fleet, totals, deleted := churnFleet(d, 7)
	if len(deleted) == 0 {
		t.Fatal("churn produced no deletions")
	}

	run := func(ratio float64, path string) *Stream {
		s, err := NewStream(StreamConfig{
			EpochSize: 8, PublishEvery: 2, CompactRatio: ratio, StatePath: path,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RunDeltas(context.Background(), fleet, totals); err != nil {
			t.Fatal(err)
		}
		return s
	}

	dir := t.TempDir()
	plainPath := filepath.Join(dir, "plain.state")
	compactPath := filepath.Join(dir, "compact.state")
	plain := run(0, plainPath)
	compacted := run(0.01, compactPath)

	if compacted.Compactions() == 0 {
		t.Fatal("aggressive trigger never compacted")
	}
	if a, b := streamFingerprint(t, plain), streamFingerprint(t, compacted); a != b {
		t.Errorf("compaction changed observable output:\n--- plain\n%s--- compacted\n%s", a, b)
	}
	ps, err := os.ReadFile(plainPath)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := os.ReadFile(compactPath)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Tombstones() == 0 {
		t.Fatal("the never-compacting run drained with no tombstones; churn too weak for the test")
	}
	if string(ps) != string(cs) {
		t.Errorf("compacting run saved %d state bytes that differ from the never-compacting run's %d", len(cs), len(ps))
	}
}

// TestStreamKillMidCompactionChaos is the crash gate for compaction:
// at workers {1,2,8}, a compaction with tombstones live leaves the
// encoded state byte-identical, and killing the process at every
// interesting point of the compaction's save must leave (a) an on-disk
// state byte-identical to it — never a torn hybrid — and (b) a stream
// resumed from those bytes that drains to the same final fingerprint
// as an uninterrupted run.
func TestStreamKillMidCompactionChaos(t *testing.T) {
	d := streamTestWeb(44, 60, 8)
	fleet, totals, deleted := churnFleet(d, 8)
	if len(deleted) == 0 {
		t.Fatal("churn produced no deletions")
	}
	metas := map[string]*data.Source{}
	for _, s := range d.Sources() {
		metas[s.ID] = s
	}

	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := StreamConfig{EpochSize: 9, PublishEvery: 2, Workers: workers}

			// Uninterrupted baseline (no compaction; compaction must not
			// change the final output anyway).
			base, err := NewStream(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := base.RunDeltas(context.Background(), fleet, totals); err != nil {
				t.Fatal(err)
			}
			want := streamFingerprint(t, base)

			// Crashing run: drive epochs by hand with Run's cadence until
			// the stream has accumulated garbage, then snapshot the state
			// file right before and right after a compaction's save.
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
			const crashAfter = 1
			for ep := range str.C {
				if err := crashed.ApplyDeltas(metas, ep); err != nil {
					t.Fatal(err)
				}
				if crashed.shouldPublish() {
					if _, err := crashed.Publish(context.Background()); err != nil {
						t.Fatal(err)
					}
				}
				if err := crashed.Save(path); err != nil {
					t.Fatal(err)
				}
				if ep.Seq == crashAfter {
					break
				}
			}
			crashEpoch := crashed.Epoch()
			if crashEpoch != crashAfter+1 {
				t.Fatalf("stream drained at epoch %d before the crash point", crashEpoch)
			}
			if crashed.Tombstones() == 0 {
				t.Fatalf("no tombstones by epoch %d; churn too weak for the test", crashAfter)
			}
			preBytes, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			slots, _, tombs := crashed.Compact()
			if slots == 0 || tombs == 0 {
				t.Fatalf("compaction reclaimed nothing (slots=%d tombs=%d)", slots, tombs)
			}
			if err := crashed.Save(path); err != nil {
				t.Fatal(err)
			}
			postBytes, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(preBytes) != string(postBytes) {
				t.Fatalf("compaction changed the encoded state: %d bytes before, %d after", len(preBytes), len(postBytes))
			}

			// Three kill points: before the compaction save committed
			// (the previous save's bytes), mid-save with a stray temp
			// file (those bytes + junk temp), and after (the
			// compaction save's bytes). Each must restore to exactly the
			// one encoded state and drain to the uninterrupted
			// fingerprint.
			scenarios := []struct {
				name  string
				bytes []byte
				junk  bool
			}{
				{"killed-before-save", preBytes, false},
				{"killed-mid-save", preBytes, true},
				{"killed-after-save", postBytes, false},
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
					onDisk, err := os.ReadFile(p)
					if err != nil {
						t.Fatal(err)
					}
					if string(onDisk) != string(preBytes) {
						t.Fatal("state file is not the encoded state")
					}
					resumed, err := LoadStream(p, ccfg, nil)
					if err != nil {
						t.Fatal(err)
					}
					if resumed.Epoch() != crashEpoch {
						t.Fatalf("restored at epoch %d, want %d", resumed.Epoch(), crashEpoch)
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
