package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/source"
	"repro/internal/source/faults"
)

// chaosFaults is the fault mix the crash/resume tests stream through:
// transient flakes and truncated payloads are content-preserving (the
// watch refetches until the cursor window is covered), so replay stays
// byte-identical. Corruption is deliberately absent — it rewrites
// record content per fetch, which no resume protocol can make
// replay-identical.
func chaosFaults(seed int64) faults.Config {
	return faults.Config{Seed: seed, TransientRate: 0.25, TruncateRate: 0.25, TruncateFraction: 0.6}
}

// TestStreamCrashResumeByteIdentical is the chaos gate for stream
// persistence: run a fault-injected stream, kill it mid-epoch (torn
// in-memory work, state file still at the last epoch boundary),
// restore from disk with a freshly fault-wrapped fleet, finish — and
// require the final clustering/fusion output byte-identical to an
// uninterrupted run, at every worker count.
func TestStreamCrashResumeByteIdentical(t *testing.T) {
	d := streamTestWeb(31, 80, 8)
	totals := source.Totals(d)
	metas := map[string]*data.Source{}
	for _, s := range d.Sources() {
		metas[s.ID] = s
	}
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := StreamConfig{EpochSize: 9, PublishEvery: 2, Workers: workers}

			// Uninterrupted baseline, itself streaming through the fault
			// injector.
			base, err := NewStream(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			fleet := faults.WrapAll(source.FromDataset(d), chaosFaults(7))
			if err := base.RunDeltas(context.Background(), fleet, totals); err != nil {
				t.Fatal(err)
			}
			want := streamFingerprint(t, base)

			// Crashing run: drive epochs by hand with RunDeltas' exact
			// publish/save cadence, then "crash" mid-epoch — half of the
			// next epoch applied in memory, nothing saved.
			path := filepath.Join(t.TempDir(), "stream.state")
			ccfg := cfg
			ccfg.StatePath = path
			crashed, err := NewStream(ccfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			str, err := source.NewDeltaStreamer(context.Background(),
				faults.WrapAll(source.FromDataset(d), chaosFaults(7)),
				source.StreamConfig{EpochSize: ccfg.EpochSize, Totals: totals})
			if err != nil {
				t.Fatal(err)
			}
			defer str.Close()
			const crashAfter = 3
			for ep := range str.C {
				if ep.Seq == crashAfter {
					torn := ep
					torn.Deltas = ep.Deltas[:len(ep.Deltas)/2]
					if err := crashed.ApplyDeltas(metas, torn); err != nil {
						t.Fatal(err)
					}
					break // killed: the torn epoch never reaches the state file
				}
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
			}

			// Restore from the persisted state with a freshly wrapped
			// fleet (fault schedules restart, content does not) and let
			// RunDeltas finish the stream.
			resumed, err := LoadStream(path, ccfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if resumed.Epoch() != crashAfter {
				t.Fatalf("restored at epoch %d, want %d (torn epoch must not persist)", resumed.Epoch(), crashAfter)
			}
			if err := resumed.RunDeltas(context.Background(),
				faults.WrapAll(source.FromDataset(d), chaosFaults(7)), totals); err != nil {
				t.Fatal(err)
			}

			if got := streamFingerprint(t, resumed); got != want {
				t.Errorf("resumed output differs from uninterrupted run:\n--- uninterrupted\n%s--- resumed\n%s", want, got)
			}
		})
	}
}

// TestRecordFleetsKeepParentBits pins the record stream's output as
// change logs: a clean and a fault-wrapped FromDataset fleet (upsert
// logs, the fault injector rolling per fetch and per upsert), drained
// by RunDeltas in two epoch shapes at workers {1, 2, 8}, reproduce the
// FNV-64 digests of streamFingerprint and of the saved state bytes that
// were recorded with the old record stream (Stream.Run) before record
// fleets entered as change logs.
func TestRecordFleetsKeepParentBits(t *testing.T) {
	d := streamTestWeb(31, 80, 8)
	for _, tc := range []struct {
		fleet, shape string
		cfg          StreamConfig
		wrap         func([]source.DeltaSource) []source.DeltaSource
		want         [2]uint64 // streamFingerprint, state bytes
	}{
		{"clean", "9/2", StreamConfig{EpochSize: 9, PublishEvery: 2}, nil, [2]uint64{0x838f211fa2e4eb41, 0x773152a11bdc2945}},
		{"clean", "25/1", StreamConfig{EpochSize: 25, PublishEvery: 1, SaveEvery: 3}, nil, [2]uint64{0x5f1f4dbd2cd9b879, 0x72fe877319f9fbc3}},
		{"faulted", "9/2", StreamConfig{EpochSize: 9, PublishEvery: 2}, faultFleet, [2]uint64{0x838f211fa2e4eb41, 0x773152a11bdc2945}},
		{"faulted", "25/1", StreamConfig{EpochSize: 25, PublishEvery: 1, SaveEvery: 3}, faultFleet, [2]uint64{0x5f1f4dbd2cd9b879, 0x72fe877319f9fbc3}},
	} {
		for _, workers := range []int{1, 2, 8} {
			cfg := tc.cfg
			cfg.Workers = workers
			cfg.StatePath = filepath.Join(t.TempDir(), "stream.state")
			s, err := NewStream(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			fleet := source.FromDataset(d)
			if tc.wrap != nil {
				fleet = tc.wrap(fleet)
			}
			if err := s.RunDeltas(context.Background(), fleet, source.Totals(d)); err != nil {
				t.Fatal(err)
			}
			state, err := os.ReadFile(cfg.StatePath)
			if err != nil {
				t.Fatal(err)
			}
			got := [2]uint64{fnv64([]byte(streamFingerprint(t, s))), fnv64(state)}
			if got != tc.want {
				t.Errorf("%s fleet, epoch/publish %s, workers=%d: digests %#x, want %#x", tc.fleet, tc.shape, workers, got, tc.want)
			}
		}
	}
}

// panicky is a misbehaving source adapter: its first panics fetches
// panic (every fetch when panics is negative), later ones serve the log.
type panicky struct {
	*source.DeltaStatic
	panics int
}

func (p *panicky) FetchDeltas(ctx context.Context) ([]source.Delta, error) {
	if p.panics != 0 {
		p.panics--
		panic("adapter bug")
	}
	return p.DeltaStatic.FetchDeltas(ctx)
}

// withPanicky replaces the fleet's first source with a panicky one.
func withPanicky(d *data.Dataset, panics int) []source.DeltaSource {
	fleet := source.FromDataset(d)
	fleet[0] = &panicky{DeltaStatic: fleet[0].(*source.DeltaStatic), panics: panics}
	return fleet
}

// TestStreamSurvivesPanickingSource: a source that panics on every
// fetch ends RunDeltas with an error naming the panic once the poll's
// refetch budget runs out, instead of killing the process from the
// producer goroutine.
func TestStreamSurvivesPanickingSource(t *testing.T) {
	d := streamTestWeb(31, 80, 8)
	s, err := NewStream(StreamConfig{EpochSize: 9}, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = s.RunDeltas(context.Background(), withPanicky(d, -1), source.Totals(d))
	if err == nil || !strings.Contains(err.Error(), "panic") || !strings.Contains(err.Error(), "adapter bug") {
		t.Fatalf("RunDeltas err = %v, want the recovered panic", err)
	}
}

// TestStreamPanicOnceDrainsClean: a source that panics once and then
// behaves costs one refetch and drains to the clean fleet's output.
func TestStreamPanicOnceDrainsClean(t *testing.T) {
	d := streamTestWeb(31, 80, 8)
	run := func(fleet []source.DeltaSource) string {
		s, err := NewStream(StreamConfig{EpochSize: 9, PublishEvery: 2}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RunDeltas(context.Background(), fleet, source.Totals(d)); err != nil {
			t.Fatal(err)
		}
		return streamFingerprint(t, s)
	}
	if got, want := run(withPanicky(d, 1)), run(source.FromDataset(d)); got != want {
		t.Errorf("panic-once fleet diverged from the clean fleet:\n--- clean\n%s--- panic once\n%s", want, got)
	}
}

func faultFleet(fleet []source.DeltaSource) []source.DeltaSource {
	return faults.WrapAll(fleet, chaosFaults(7))
}

func fnv64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}
