package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/source"
)

func streamTestWeb(seed int64, entities, sources int) *data.Dataset {
	w := datagen.NewWorld(datagen.WorldConfig{Seed: seed, NumEntities: entities})
	web := datagen.BuildWeb(w, datagen.SourceConfig{
		Seed: seed + 1, NumSources: sources, DirtLevel: 1,
		IdentifierRate: 0.9, Heterogeneity: 0.3,
		HeadFraction: 0.4, TailCoverage: 0.3,
	})
	return web.Dataset
}

// streamFingerprint renders every output-relevant piece of stream state
// as one string; byte equality of fingerprints is the resume contract
// the chaos tests assert.
func streamFingerprint(t *testing.T, s *Stream) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "epoch=%d ingested=%d publishes=%d comparisons=%d\n",
		s.Epoch(), s.Ingested(), s.Publishes(), s.Comparisons())
	fmt.Fprintf(&b, "clusters=%v\n", s.Clusters())
	cursors := s.Cursors()
	for _, id := range sortedKeys(cursors) {
		fmt.Fprintf(&b, "cursor %s=%d\n", id, cursors[id])
	}
	acc := s.Accuracy()
	for _, id := range sortedKeys(acc) {
		fmt.Fprintf(&b, "acc %s=%.17g\n", id, acc[id])
	}
	snap, err := s.Rebuild(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range snap.Entities() {
		fmt.Fprintf(&b, "entity %s title=%q records=%v sources=%v\n", e.ID, e.Title, e.Records, e.Sources)
		attrs := make([]string, 0, len(e.Values))
		for a := range e.Values {
			attrs = append(attrs, a)
		}
		sort.Strings(attrs)
		for _, a := range attrs {
			fmt.Fprintf(&b, "  %s=%s conf=%.17g\n", a, e.Values[a].Key(), e.Confidence[a])
		}
	}
	return b.String()
}

func TestStreamPublishesIncrementally(t *testing.T) {
	d := streamTestWeb(11, 60, 8)
	fleet := source.FromDataset(d)

	var published []*Snapshot
	s, err := NewStream(StreamConfig{EpochSize: 10, PublishEvery: 2},
		func(snap *Snapshot) { published = append(published, snap) })
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunDeltas(context.Background(), fleet, source.Totals(d)); err != nil {
		t.Fatal(err)
	}

	if s.Ingested() != int64(d.NumRecords()) {
		t.Errorf("ingested %d, want %d", s.Ingested(), d.NumRecords())
	}
	if int64(len(published)) != s.Publishes() || len(published) == 0 {
		t.Fatalf("publish callback saw %d snapshots, stream counted %d", len(published), s.Publishes())
	}
	// Entity counts grow (weakly) as the stream drains, and the final
	// published view covers every ingested record.
	for i := 1; i < len(published); i++ {
		if published[i].Len() < published[i-1].Len() {
			t.Errorf("published entity count shrank: %d then %d", published[i-1].Len(), published[i].Len())
		}
	}
	final := published[len(published)-1]
	got := 0
	for _, e := range final.Entities() {
		got += len(e.Records)
	}
	if got != d.NumRecords() {
		t.Errorf("final snapshot covers %d records, want %d", got, d.NumRecords())
	}
	// The stream never left a dirty view unpublished at drain.
	if s.StalenessNow() != 0 {
		t.Errorf("staleness after drain = %v, want 0", s.StalenessNow())
	}
}

func TestStreamStalenessWindowDrivesPublishing(t *testing.T) {
	d := streamTestWeb(12, 30, 6)
	fleet := source.FromDataset(d)

	// A 1ns window means "publish on every dirty epoch": each applied
	// epoch exceeds the window by the time the cadence check runs.
	s, err := NewStream(StreamConfig{EpochSize: 8, Staleness: time.Nanosecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunDeltas(context.Background(), fleet, source.Totals(d)); err != nil {
		t.Fatal(err)
	}
	if s.Publishes() != int64(s.Epoch()) {
		t.Errorf("publishes %d, want one per epoch (%d)", s.Publishes(), s.Epoch())
	}
}

func TestStreamMatchesBatchEntityCount(t *testing.T) {
	d := streamTestWeb(13, 50, 8)
	fleet := source.FromDataset(d)

	s, err := NewStream(StreamConfig{EpochSize: 25, PublishEvery: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunDeltas(context.Background(), fleet, source.Totals(d)); err != nil {
		t.Fatal(err)
	}

	truth := d.GroundTruthClusters()
	if len(truth) == 0 {
		t.Fatal("web carries no ground truth")
	}
	got := len(s.Clusters())
	// Identifier-driven matching keeps the online clustering close to
	// the truth partition; a gross mismatch means the stream path lost
	// records or never linked.
	if got < len(truth)/2 || got > len(truth)*2 {
		t.Errorf("stream clusters = %d, truth = %d", got, len(truth))
	}
}

func TestStreamStateRoundTripByteIdentical(t *testing.T) {
	d := streamTestWeb(14, 40, 6)
	fleet := source.FromDataset(d)
	path := filepath.Join(t.TempDir(), "stream.state")

	cfg := StreamConfig{EpochSize: 7, PublishEvery: 2, StatePath: path}
	s, err := NewStream(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunDeltas(context.Background(), fleet, source.Totals(d)); err != nil {
		t.Fatal(err)
	}

	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := LoadStream(path, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The restored stream re-encodes to the exact bytes on disk, and
	// every observable matches the original.
	if string(restored.encodeState()) != string(onDisk) {
		t.Error("re-encoded state differs from the persisted bytes")
	}
	if a, b := streamFingerprint(t, s), streamFingerprint(t, restored); a != b {
		t.Errorf("restored stream fingerprint differs:\n--- original\n%s--- restored\n%s", a, b)
	}
}

func TestStreamStateRejectsCorruption(t *testing.T) {
	d := streamTestWeb(15, 20, 4)
	fleet := source.FromDataset(d)
	path := filepath.Join(t.TempDir(), "stream.state")
	cfg := StreamConfig{EpochSize: 10, StatePath: path}
	s, err := NewStream(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunDeltas(context.Background(), fleet, source.Totals(d)); err != nil {
		t.Fatal(err)
	}

	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Remove the rotated backup: with no fallback available, corruption
	// must surface as ErrBadState (recovery through the backup has its
	// own test).
	os.Remove(path + ".bak")
	buf[len(buf)/2] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadStream(path, cfg, nil); !errors.Is(err, ErrBadState) {
		t.Errorf("corrupted state load err = %v, want ErrBadState", err)
	}
	if err := os.WriteFile(path, buf[:10], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadStream(path, cfg, nil); !errors.Is(err, ErrBadState) {
		t.Errorf("truncated state load err = %v, want ErrBadState", err)
	}

	// ResumeStream with no file starts fresh rather than failing.
	fresh, err := ResumeStream(StreamConfig{StatePath: filepath.Join(t.TempDir(), "none")}, nil)
	if err != nil || fresh.Epoch() != 0 {
		t.Errorf("fresh resume: %v epoch=%d", err, fresh.Epoch())
	}
}

func TestStreamConfigValidation(t *testing.T) {
	cases := []StreamConfig{
		{MatchThreshold: 1.5},
		{MatchThreshold: -0.2},
		{FusionN: -1},
		{PublishEvery: -1},
		{Workers: -1},
	}
	for i, cfg := range cases {
		if _, err := NewStream(cfg, nil); err == nil {
			t.Errorf("case %d: config %+v accepted", i, cfg)
		}
	}
}

func BenchmarkStreamApplyDeltas(b *testing.B) {
	d := streamTestWeb(20, 200, 12)
	fleet := source.FromDataset(d)
	metas := fleetMetas(fleet)
	str, err := source.NewDeltaStreamer(context.Background(), fleet, source.StreamConfig{EpochSize: 50})
	if err != nil {
		b.Fatal(err)
	}
	defer str.Close()
	var epochs []source.DeltaEpoch
	for ep := range str.C {
		epochs = append(epochs, ep)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewStream(StreamConfig{EpochSize: 50}, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, ep := range epochs {
			if err := s.ApplyDeltas(metas, ep); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// drainedStream is a stream that has drained d and published once, at
// the drain's end.
func drainedStream(tb testing.TB, d *data.Dataset) *Stream {
	tb.Helper()
	s, err := NewStream(StreamConfig{EpochSize: 100, PublishEvery: 1 << 30}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.RunDeltas(context.Background(), source.FromDataset(d), source.Totals(d)); err != nil {
		tb.Fatal(err)
	}
	return s
}

// BenchmarkStreamPublish times a publish of one drained web three ways:
// full is the cold build (no cluster view cached, as after a restore),
// unchanged a warm publish with no delta since the last, and dirty1pct a
// warm publish after upserts into 1 % of the clusters.
func BenchmarkStreamPublish(b *testing.B) {
	d := streamTestWeb(21, 1000, 20)
	ctx := context.Background()
	publish := func(b *testing.B, s *Stream) {
		if _, err := s.Publish(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("full", func(b *testing.B) {
		s := drainedStream(b, d)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.views = nil
			publish(b, s)
		}
	})
	b.Run("unchanged", func(b *testing.B) {
		s := drainedStream(b, d)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			publish(b, s)
		}
	})
	b.Run("dirty1pct", func(b *testing.B) {
		s := drainedStream(b, d)
		metas := fleetMetas(source.FromDataset(d))
		clusters := s.Clusters()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			var ep source.DeltaEpoch
			ep.Seq = s.Epoch()
			for k := 0; k < len(clusters)/100; k++ {
				old := s.Dataset().Record(clusters[(i+k*100)%len(clusters)][0])
				ep.Deltas = append(ep.Deltas, source.Upsert(old.Clone()))
			}
			if err := s.ApplyDeltas(metas, ep); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			publish(b, s)
		}
	})
}
