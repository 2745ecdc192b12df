package core

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/source"
)

// encodeStateV1 replicates the PR-9 v1 state layout byte for byte:
// everything encodeState writes up to and including the comparisons
// counter, under version 1, with no tombstone sections. It exists so
// the v1-compatibility tests pin the historical format independently
// of the live encoder.
func encodeStateV1(s *Stream) []byte {
	b := make([]byte, 0, 1<<16)
	b = append(b, streamStateMagic...)
	b = binary.AppendUvarint(b, streamStateVersionV1)

	b = binary.AppendUvarint(b, uint64(s.epoch))
	b = binary.AppendUvarint(b, uint64(s.ingested))
	b = binary.AppendUvarint(b, uint64(s.publishes))

	b = binary.AppendUvarint(b, uint64(len(s.cursors)))
	for _, id := range sortedKeys(s.cursors) {
		b = appendString(b, id)
		b = binary.AppendUvarint(b, uint64(s.cursors[id]))
	}
	b = binary.AppendUvarint(b, uint64(len(s.acc)))
	for _, id := range sortedKeys(s.acc) {
		b = appendString(b, id)
		b = appendFloat(b, s.acc[id])
	}

	st := s.inc.State()
	b = binary.AppendUvarint(b, uint64(len(st.Sources)))
	for _, src := range st.Sources {
		b = appendString(b, src.ID)
		b = appendString(b, src.Name)
		b = appendFloat(b, src.TrueAccuracy)
		b = binary.AppendUvarint(b, uint64(len(src.CopiesFrom)))
		for _, c := range src.CopiesFrom {
			b = appendString(b, c)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(st.Records)))
	for _, r := range st.Records {
		b = appendString(b, r.ID)
		b = appendString(b, r.SourceID)
		b = appendString(b, r.EntityID)
		attrs := r.Attrs()
		b = binary.AppendUvarint(b, uint64(len(attrs)))
		for _, a := range attrs {
			b = appendString(b, a)
			b = appendValue(b, r.Get(a))
		}
	}
	b = binary.AppendUvarint(b, uint64(len(st.Postings)))
	for _, k := range sortedKeys(st.Postings) {
		b = appendString(b, k)
		ids := st.Postings[k]
		b = binary.AppendUvarint(b, uint64(len(ids)))
		for _, id := range ids {
			b = appendString(b, id)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(st.Partition)))
	for _, set := range st.Partition {
		b = binary.AppendUvarint(b, uint64(len(set)))
		for _, id := range set {
			b = appendString(b, id)
		}
	}
	b = binary.AppendUvarint(b, uint64(st.Comparisons))

	crc := crc32.ChecksumIEEE(b)
	return binary.LittleEndian.AppendUint32(b, crc)
}

// v1FixtureStream builds the deterministic insert-only stream the
// committed v1 fixture encodes.
func v1FixtureStream(t *testing.T) *Stream {
	t.Helper()
	d := streamTestWeb(51, 12, 3)
	s, err := NewStream(StreamConfig{EpochSize: 7, PublishEvery: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunDeltas(context.Background(), source.FromDataset(d), source.Totals(d)); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestV1StateLoadsThroughV2Codec is the compatibility gate: a v1
// (pre-tombstone) state file — both freshly encoded and the committed
// fixture — must load through the v2 codec with an empty tombstone
// set, behave identically, and round-trip through a v2 save.
func TestV1StateLoadsThroughV2Codec(t *testing.T) {
	orig := v1FixtureStream(t)
	cfg := StreamConfig{EpochSize: 7, PublishEvery: 2}
	v1 := encodeStateV1(orig)

	dir := t.TempDir()
	path := filepath.Join(dir, "stream.state")
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadStream(path, cfg, nil)
	if err != nil {
		t.Fatalf("v1 state failed to load through v2 codec: %v", err)
	}
	if loaded.Tombstones() != 0 || loaded.Deleted() != 0 {
		t.Errorf("v1 load: tombstones=%d deleted=%d, want 0/0", loaded.Tombstones(), loaded.Deleted())
	}
	if a, b := streamFingerprint(t, orig), streamFingerprint(t, loaded); a != b {
		t.Errorf("v1-loaded stream fingerprint differs:\n--- original\n%s--- loaded\n%s", a, b)
	}

	// Round trip: saving rewrites as v2; the reload is still identical.
	v2path := filepath.Join(dir, "upgraded.state")
	if err := loaded.Save(v2path); err != nil {
		t.Fatal(err)
	}
	again, err := LoadStream(v2path, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := streamFingerprint(t, orig), streamFingerprint(t, again); a != b {
		t.Error("v1→v2 round trip changed the stream")
	}
}

// TestV1CommittedFixtureStillLoads guards old -stream-state files in
// the wild: the committed v1 fixture must keep loading through every
// future codec revision, with an empty tombstone set, and survive a
// save/reload round trip under the current version. (The fixture is
// self-seeding on first run so it can be committed from a clean tree.)
func TestV1CommittedFixtureStillLoads(t *testing.T) {
	fixture := filepath.Join("testdata", "streamstate_v1.bin")
	committed, err := os.ReadFile(fixture)
	if errors.Is(err, os.ErrNotExist) {
		orig := v1FixtureStream(t)
		committed = encodeStateV1(orig)
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fixture, committed, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote v1 fixture %s (%d bytes); commit it", fixture, len(committed))
	} else if err != nil {
		t.Fatal(err)
	}

	cfg := StreamConfig{EpochSize: 7, PublishEvery: 2}
	dir := t.TempDir()
	path := filepath.Join(dir, "stream.state")
	if err := os.WriteFile(path, committed, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadStream(path, cfg, nil)
	if err != nil {
		t.Fatalf("committed v1 fixture failed to load: %v", err)
	}
	if loaded.Tombstones() != 0 || loaded.Deleted() != 0 {
		t.Errorf("fixture load: tombstones=%d deleted=%d, want 0/0", loaded.Tombstones(), loaded.Deleted())
	}
	if loaded.Epoch() == 0 || loaded.Ingested() == 0 {
		t.Errorf("fixture load looks empty: epoch=%d ingested=%d", loaded.Epoch(), loaded.Ingested())
	}
	v2path := filepath.Join(dir, "upgraded.state")
	if err := loaded.Save(v2path); err != nil {
		t.Fatal(err)
	}
	again, err := LoadStream(v2path, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := streamFingerprint(t, loaded), streamFingerprint(t, again); a != b {
		t.Error("fixture v1→v2 round trip changed the stream")
	}
}

// TestStreamStateBackupRecovery is the .bak satellite: Save rotates a
// backup of the last good state, a corrupted primary falls back to it,
// and ResumeStream recovers even when the primary vanished entirely.
func TestStreamStateBackupRecovery(t *testing.T) {
	d := streamTestWeb(52, 20, 4)
	fleet := source.FromDataset(d)
	dir := t.TempDir()
	path := filepath.Join(dir, "stream.state")
	cfg := StreamConfig{EpochSize: 5, PublishEvery: 2, StatePath: path}

	s, err := NewStream(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunDeltas(context.Background(), fleet, source.Totals(d)); err != nil {
		t.Fatal(err)
	}
	bak := path + ".bak"
	if _, err := os.Stat(bak); err != nil {
		t.Fatalf("Save rotated no backup: %v", err)
	}

	// Corrupt the primary: LoadStream must recover from the backup.
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := append([]byte(nil), buf...)
	corrupted[len(corrupted)/3] ^= 0xff
	if err := os.WriteFile(path, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}
	recovered, err := LoadStream(path, cfg, nil)
	if err != nil {
		t.Fatalf("load with good backup failed: %v", err)
	}
	// The backup is one save older than the final state: it must be a
	// valid resumable state (epoch within one of the final).
	if got := recovered.Epoch(); got != s.Epoch() && got != s.Epoch()-1 {
		t.Errorf("recovered epoch %d, want %d or %d", got, s.Epoch(), s.Epoch()-1)
	}

	// ResumeStream with the primary gone entirely also recovers.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	resumed, err := ResumeStream(cfg, nil)
	if err != nil {
		t.Fatalf("resume from backup failed: %v", err)
	}
	if resumed.Epoch() == 0 {
		t.Error("resume ignored the surviving backup and started fresh")
	}

	// With both primary and backup corrupt, the load fails loudly.
	if err := os.WriteFile(path, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bak, corrupted[:len(corrupted)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadStream(path, cfg, nil); !errors.Is(err, ErrBadState) {
		t.Errorf("load with both copies corrupt: err = %v, want ErrBadState", err)
	}
}

// TestStreamStateDecodeRobust pins CRC coverage: every truncation and
// every single-byte corruption of a valid state file must surface as
// ErrBadState — the checksum trailer covers the entire payload, so no
// torn or flipped state can silently half-load.
func TestStreamStateDecodeRobust(t *testing.T) {
	d := streamTestWeb(53, 8, 3)
	s, err := NewStream(StreamConfig{EpochSize: 5, PublishEvery: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunDeltas(context.Background(), source.FromDataset(d), source.Totals(d)); err != nil {
		t.Fatal(err)
	}
	valid := s.encodeState()
	cfg := StreamConfig{EpochSize: 5, PublishEvery: 2}

	decode := func(buf []byte) error {
		fresh, err := NewStream(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return fresh.decodeState(buf)
	}
	if err := decode(valid); err != nil {
		t.Fatalf("valid state failed to decode: %v", err)
	}
	for n := 0; n < len(valid); n++ {
		if err := decode(valid[:n]); !errors.Is(err, ErrBadState) {
			t.Fatalf("truncation to %d bytes: err = %v, want ErrBadState", n, err)
		}
	}
	for i := 0; i < len(valid); i++ {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0x41
		if err := decode(mut); !errors.Is(err, ErrBadState) {
			t.Fatalf("flip at byte %d: err = %v, want ErrBadState", i, err)
		}
	}
}

// FuzzStreamStateDecode hammers the codec with arbitrary mutations of
// valid v1/v2 states: any input must either decode cleanly or return
// ErrBadState — never panic, never return an unclassified error.
func FuzzStreamStateDecode(f *testing.F) {
	d := streamTestWeb(54, 8, 3)
	s, err := NewStream(StreamConfig{EpochSize: 5, PublishEvery: 2}, nil)
	if err != nil {
		f.Fatal(err)
	}
	if err := s.RunDeltas(context.Background(), source.FromDataset(d), source.Totals(d)); err != nil {
		f.Fatal(err)
	}
	valid := s.encodeState()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(streamStateMagic))
	f.Add([]byte{})

	cfg := StreamConfig{EpochSize: 5, PublishEvery: 2}
	f.Fuzz(func(t *testing.T, buf []byte) {
		fresh, err := NewStream(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.decodeState(buf); err != nil && !errors.Is(err, ErrBadState) {
			t.Fatalf("decode returned unclassified error %v", err)
		}
	})
}
