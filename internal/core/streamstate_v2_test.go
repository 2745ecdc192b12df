package core

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/source"
)

// encodeStateV1 replicates the PR-9 v1 state layout byte for byte: the
// v3 sections up to and including the comparisons counter, under
// version 1, with a posting-list section between the records and the
// partition. The linker no longer carries postings, so they are derived
// here as a restore derives them: each record appended, in record
// order, to the lists of its refStreamKey keys (distinct and non-empty) —
// exact for the insert-only streams v1 held. It exists so the
// v1-compatibility tests pin the historical format independently of
// the live encoder.
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
	postings := map[string][]string{}
	for _, r := range st.Records {
		for _, k := range refStreamKey(r) {
			postings[k] = append(postings[k], r.ID)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(postings)))
	for _, k := range sortedKeys(postings) {
		b = appendString(b, k)
		ids := postings[k]
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
// (pre-delete) state file must load through the current codec with the
// original's posting lists rebuilt from its records (the file's own
// posting section is skipped), behave identically, and round-trip
// through a v3 save.
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
		t.Fatalf("v1 state failed to load through the current codec: %v", err)
	}
	if loaded.Deleted() != 0 {
		t.Errorf("v1 load: deleted=%d, want 0", loaded.Deleted())
	}
	if a, b := orig.inc.Postings(), loaded.inc.Postings(); !reflect.DeepEqual(a, b) {
		t.Errorf("v1 load: postings\n%v\nthe original's\n%v", b, a)
	}
	if a, b := streamFingerprint(t, orig), streamFingerprint(t, loaded); a != b {
		t.Errorf("v1-loaded stream fingerprint differs:\n--- original\n%s--- loaded\n%s", a, b)
	}

	// Round trip: saving rewrites as v3; the reload is still identical.
	v3path := filepath.Join(dir, "upgraded.state")
	if err := loaded.Save(v3path); err != nil {
		t.Fatal(err)
	}
	again, err := LoadStream(v3path, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := streamFingerprint(t, orig), streamFingerprint(t, again); a != b {
		t.Error("v1→v3 round trip changed the stream")
	}
}

// TestV1CommittedFixtureStillLoads guards old -stream-state files in
// the wild: the committed v1 fixture must keep loading through every
// future codec revision, with the posting lists of the stream it was
// cut from, and survive a save/reload round trip under the current
// version; encodeStateV1 must still reproduce it byte for byte. (The
// fixture is self-seeding on first run so it can be committed from a
// clean tree.)
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
	if again := encodeStateV1(v1FixtureStream(t)); string(again) != string(committed) {
		t.Error("encodeStateV1 no longer reproduces the committed v1 fixture")
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
	if loaded.Deleted() != 0 {
		t.Errorf("fixture load: deleted=%d, want 0", loaded.Deleted())
	}
	if a, b := v1FixtureStream(t).inc.Postings(), loaded.inc.Postings(); !reflect.DeepEqual(a, b) {
		t.Errorf("fixture load: postings\n%v\nthe original's\n%v", b, a)
	}
	if loaded.Epoch() == 0 || loaded.Ingested() == 0 {
		t.Errorf("fixture load looks empty: epoch=%d ingested=%d", loaded.Epoch(), loaded.Ingested())
	}
	v3path := filepath.Join(dir, "upgraded.state")
	if err := loaded.Save(v3path); err != nil {
		t.Fatal(err)
	}
	again, err := LoadStream(v3path, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := streamFingerprint(t, loaded), streamFingerprint(t, again); a != b {
		t.Error("fixture v1→v3 round trip changed the stream")
	}
}

// v2Fixture is the churned stream the committed v2 fixture was cut from:
// testdata/streamstate_v2.bin holds its state after epoch 2, written by
// the v2 encoder while two deleted records were still tombstoned.
func v2Fixture() (fleet []source.DeltaSource, totals map[string]int, cfg StreamConfig) {
	fleet, totals, _ = churnFleet(streamTestWeb(45, 40, 6), 9)
	return fleet, totals, StreamConfig{EpochSize: 6, PublishEvery: 2}
}

// TestV2CommittedFixtureLoadsCompacted guards v2 state files: the
// committed fixture, whose tombstone section is non-empty, loads with
// the posting lists of a stream that applied the same two epochs, which
// hold no deleted record (they are rebuilt from the records; the file's
// posting and tombstone sections are skipped), and drains to the
// uninterrupted run's fingerprint.
func TestV2CommittedFixtureLoadsCompacted(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("testdata", "streamstate_v2.bin"))
	if err != nil {
		t.Fatal(err)
	}
	d := &stateDecoder{buf: committed[len(streamStateMagic):]}
	if v := d.uvarint(); v != 2 {
		t.Fatalf("fixture is version %d, want 2", v)
	}
	fleet, totals, cfg := v2Fixture()
	base, err := NewStream(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := base.RunDeltas(context.Background(), fleet, totals); err != nil {
		t.Fatal(err)
	}
	want := streamFingerprint(t, base)

	path := filepath.Join(t.TempDir(), "stream.state")
	if err := os.WriteFile(path, committed, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadStream(path, cfg, nil)
	if err != nil {
		t.Fatalf("committed v2 fixture failed to load: %v", err)
	}
	if loaded.Epoch() != 2 || loaded.Deleted() != 2 {
		t.Fatalf("fixture load: epoch=%d deleted=%d, want 2/2", loaded.Epoch(), loaded.Deleted())
	}
	cut, err := NewStream(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	str, err := source.NewDeltaStreamer(context.Background(), fleet, source.StreamConfig{EpochSize: cfg.EpochSize, Totals: totals})
	if err != nil {
		t.Fatal(err)
	}
	metas := fleetMetas(fleet)
	for ep := range str.C {
		if err := cut.ApplyDeltas(metas, ep); err != nil {
			t.Fatal(err)
		}
		if cut.Epoch() == loaded.Epoch() {
			break
		}
	}
	str.Close()
	if a, b := cut.inc.Postings(), loaded.inc.Postings(); cut.Deleted() != 2 || !reflect.DeepEqual(a, b) {
		t.Fatalf("fixture load: postings\n%v\nafter the same %d epochs (%d deletes)\n%v", b, cut.Epoch(), cut.Deleted(), a)
	}
	if err := loaded.RunDeltas(context.Background(), fleet, totals); err != nil {
		t.Fatal(err)
	}
	if got := streamFingerprint(t, loaded); got != want {
		t.Errorf("resumed v2 fixture differs from the uninterrupted run:\n--- uninterrupted\n%s--- resumed\n%s", want, got)
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

	// With the primary gone entirely, LoadStream recovers from the
	// backup too, and so does ResumeStream.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadStream(path, cfg, nil)
	if err != nil {
		t.Fatalf("load with missing primary and good backup failed: %v", err)
	}
	if got := loaded.Epoch(); got != recovered.Epoch() {
		t.Errorf("load from backup: epoch %d, want %d", got, recovered.Epoch())
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
// valid v1, v2 and v3 states: any input must either decode cleanly or
// return ErrBadState — never panic, never return an unclassified error.
func FuzzStreamStateDecode(f *testing.F) {
	d := streamTestWeb(54, 8, 3)
	s, err := NewStream(StreamConfig{EpochSize: 5, PublishEvery: 2}, nil)
	if err != nil {
		f.Fatal(err)
	}
	if err := s.RunDeltas(context.Background(), source.FromDataset(d), source.Totals(d)); err != nil {
		f.Fatal(err)
	}
	v2, err := os.ReadFile(filepath.Join("testdata", "streamstate_v2.bin"))
	if err != nil {
		f.Fatal(err)
	}
	valid := s.encodeState()
	f.Add(valid)
	f.Add(encodeStateV1(s))
	f.Add(v2)
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
