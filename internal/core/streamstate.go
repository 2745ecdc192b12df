package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"log"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/data"
	"repro/internal/linkage"
)

// Stream state codec: a versioned binary format holding everything a
// resumed stream needs to replay byte-identically — epoch counter,
// per-source cursors, fusion accuracy estimates, and the incremental
// linker's dictionaries (sources, records), posting lists (insertion
// order — the probe order) and union-find partition (canonical form).
//
// Layout: 8-byte magic, uvarint version, the sections in fixed order,
// then a CRC32 (IEEE) of everything before it. Strings are
// uvarint-length-prefixed; floats are IEEE-754 bits little-endian;
// section maps are written in sorted key order so the same state
// always encodes to the same bytes. Save writes to a temp file in the
// target directory, syncs and renames — a crash never leaves a torn
// state file behind — and rotates the previous good state to a .bak
// the loader falls back to when the primary is corrupt.
//
// Version history: v1 (PR 9) ends after the comparisons counter; v2
// appends a delete counter and a tombstone section (deleted IDs still
// occupying posting slots, with their keys). Encoding always writes
// v2; decoding accepts both, giving v1 files an empty tombstone set.
const (
	streamStateMagic     = "BDISTATE"
	streamStateVersion   = 2
	streamStateVersionV1 = 1
)

// ErrBadState reports a stream state file that is corrupt, truncated
// or of an incompatible version.
var ErrBadState = errors.New("core: stream state corrupt or incompatible")

// Save atomically persists the stream state to path, rotating the
// previous good state to path+".bak" first. The rotation hard-links
// the primary (falling back to a copy), so there is no instant at
// which neither a primary nor a backup exists.
func (s *Stream) Save(path string) error {
	buf := s.encodeState()
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".bdistate-*")
	if err != nil {
		return fmt.Errorf("core: stream save: %w", err)
	}
	tmp := f.Name()
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("core: stream save: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("core: stream save: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: stream save: %w", err)
	}
	rotateBackup(path)
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: stream save: %w", err)
	}
	reg := s.reg()
	reg.Counter("stream.saves").Inc()
	reg.Gauge("stream.state_bytes").Set(float64(len(buf)))
	return nil
}

// rotateBackup points path+".bak" at the current primary, best-effort:
// a first save (no primary yet) or an exotic filesystem without hard
// links must not fail the save itself.
func rotateBackup(path string) {
	if _, err := os.Stat(path); err != nil {
		return // no primary to rotate
	}
	bak := path + ".bak"
	os.Remove(bak)
	if err := os.Link(path, bak); err == nil {
		return
	}
	if buf, err := os.ReadFile(path); err == nil {
		os.WriteFile(bak, buf, 0o644)
	}
}

// LoadStream restores a stream from a state file written by Save. cfg
// must describe the same linkage configuration (key attributes,
// matcher, thresholds) the state was built under — functions can't be
// serialized, so the codec persists state, not configuration. A
// corrupt primary falls back to the rotated path+".bak" with a logged
// warning; only when both are unusable does the load fail.
func LoadStream(path string, cfg StreamConfig, publish func(*Snapshot)) (*Stream, error) {
	s, err := loadStreamFile(path, cfg, publish)
	if err == nil {
		return s, nil
	}
	if !errors.Is(err, ErrBadState) {
		return nil, err
	}
	bak := path + ".bak"
	s2, err2 := loadStreamFile(bak, cfg, publish)
	if err2 != nil {
		return nil, err // report the primary's corruption
	}
	log.Printf("core: stream state %s unusable (%v); recovered from backup %s", path, err, bak)
	s2.reg().Counter("stream.state_recoveries").Inc()
	return s2, nil
}

// loadStreamFile restores from exactly one file, no fallback.
func loadStreamFile(path string, cfg StreamConfig, publish func(*Snapshot)) (*Stream, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := NewStream(cfg, publish)
	if err != nil {
		return nil, err
	}
	if err := s.decodeState(buf); err != nil {
		return nil, err
	}
	return s, nil
}

// ResumeStream restores from cfg.StatePath when a state file exists
// there (falling back to the .bak on corruption — and when the primary
// itself is missing but a backup survives, restoring from that) and
// starts fresh otherwise — the entry point both -stream commands use.
func ResumeStream(cfg StreamConfig, publish func(*Snapshot)) (*Stream, error) {
	if cfg.StatePath != "" {
		if _, err := os.Stat(cfg.StatePath); err == nil {
			return LoadStream(cfg.StatePath, cfg, publish)
		} else if !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
		bak := cfg.StatePath + ".bak"
		if _, err := os.Stat(bak); err == nil {
			s, err := loadStreamFile(bak, cfg, publish)
			if err == nil {
				log.Printf("core: stream state %s missing; resumed from backup %s", cfg.StatePath, bak)
				s.reg().Counter("stream.state_recoveries").Inc()
				return s, nil
			}
			if !errors.Is(err, ErrBadState) {
				return nil, err
			}
		}
	}
	return NewStream(cfg, publish)
}

func (s *Stream) encodeState() []byte {
	b := make([]byte, 0, 1<<16)
	b = append(b, streamStateMagic...)
	b = binary.AppendUvarint(b, streamStateVersion)

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
		attrs := r.Attrs() // sorted
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

	// v2 sections: delete counter, then tombstones sorted by ID (each
	// ID with its posting keys in stored — death — order).
	b = binary.AppendUvarint(b, uint64(s.deleted))
	b = binary.AppendUvarint(b, uint64(len(st.Tombstones)))
	for _, id := range sortedKeys(st.Tombstones) {
		b = appendString(b, id)
		keys := st.Tombstones[id]
		b = binary.AppendUvarint(b, uint64(len(keys)))
		for _, k := range keys {
			b = appendString(b, k)
		}
	}

	crc := crc32.ChecksumIEEE(b)
	return binary.LittleEndian.AppendUint32(b, crc)
}

func (s *Stream) decodeState(buf []byte) error {
	if len(buf) < len(streamStateMagic)+4 {
		return fmt.Errorf("%w: %d bytes", ErrBadState, len(buf))
	}
	payload, tail := buf[:len(buf)-4], buf[len(buf)-4:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(tail) {
		return fmt.Errorf("%w: checksum mismatch", ErrBadState)
	}
	if string(payload[:len(streamStateMagic)]) != streamStateMagic {
		return fmt.Errorf("%w: bad magic", ErrBadState)
	}
	d := &stateDecoder{buf: payload[len(streamStateMagic):]}
	version := d.uvarint()
	if version != streamStateVersion && version != streamStateVersionV1 {
		return fmt.Errorf("%w: version %d, want ≤%d", ErrBadState, version, streamStateVersion)
	}

	s.epoch = int(d.uvarint())
	s.ingested = int64(d.uvarint())
	s.publishes = int64(d.uvarint())

	s.cursors = map[string]int{}
	for n := d.uvarint(); n > 0 && d.err == nil; n-- {
		id := d.string()
		s.cursors[id] = int(d.uvarint())
	}
	s.acc = map[string]float64{}
	for n := d.uvarint(); n > 0 && d.err == nil; n-- {
		id := d.string()
		s.acc[id] = d.float()
	}

	st := &linkage.IncrementalState{Postings: map[string][]string{}}
	for n := d.uvarint(); n > 0 && d.err == nil; n-- {
		src := &data.Source{ID: d.string(), Name: d.string(), TrueAccuracy: d.float()}
		for m := d.uvarint(); m > 0 && d.err == nil; m-- {
			src.CopiesFrom = append(src.CopiesFrom, d.string())
		}
		st.Sources = append(st.Sources, src)
	}
	for n := d.uvarint(); n > 0 && d.err == nil; n-- {
		id := d.string()
		srcID := d.string()
		r := data.NewRecord(id, srcID)
		r.EntityID = d.string()
		for m := d.uvarint(); m > 0 && d.err == nil; m-- {
			a := d.string()
			r.Set(a, d.value())
		}
		st.Records = append(st.Records, r)
	}
	for n := d.uvarint(); n > 0 && d.err == nil; n-- {
		k := d.string()
		ids := make([]string, 0, 4)
		for m := d.uvarint(); m > 0 && d.err == nil; m-- {
			ids = append(ids, d.string())
		}
		st.Postings[k] = ids
	}
	for n := d.uvarint(); n > 0 && d.err == nil; n-- {
		set := make([]string, 0, 4)
		for m := d.uvarint(); m > 0 && d.err == nil; m-- {
			set = append(set, d.string())
		}
		st.Partition = append(st.Partition, set)
	}
	st.Comparisons = int(d.uvarint())
	st.Tombstones = map[string][]string{}
	s.deleted = 0
	if version >= 2 {
		s.deleted = int64(d.uvarint())
		for n := d.uvarint(); n > 0 && d.err == nil; n-- {
			id := d.string()
			keys := make([]string, 0, 4)
			for m := d.uvarint(); m > 0 && d.err == nil; m-- {
				keys = append(keys, d.string())
			}
			st.Tombstones[id] = keys
		}
	}
	if d.err != nil {
		return fmt.Errorf("%w: %v", ErrBadState, d.err)
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadState, len(d.buf))
	}

	inc, err := linkage.FromState(st, streamKey, s.matcher)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadState, err)
	}
	inc.MaxBlock = s.cfg.MaxBlock
	s.inc = inc
	return nil
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func appendValue(b []byte, v data.Value) []byte {
	b = append(b, byte(v.Kind))
	switch v.Kind {
	case data.KindString:
		b = appendString(b, v.Str)
	case data.KindNumber:
		b = appendFloat(b, v.Num)
	case data.KindBool:
		if v.Bool {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	case data.KindTime:
		b = binary.AppendVarint(b, v.Time.UTC().UnixNano())
	}
	return b
}

// stateDecoder consumes the payload front to back, latching the first
// error: every accessor returns a zero value once err is set, so the
// section loops above can read unconditionally.
type stateDecoder struct {
	buf []byte
	err error
}

func (d *stateDecoder) fail(msg string) {
	if d.err == nil {
		d.err = errors.New(msg)
	}
}

func (d *stateDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail("truncated uvarint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *stateDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fail("truncated varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *stateDecoder) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.buf)) < n {
		d.fail("truncated string")
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

func (d *stateDecoder) float() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 8 {
		d.fail("truncated float")
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(d.buf))
	d.buf = d.buf[8:]
	return f
}

func (d *stateDecoder) value() data.Value {
	if d.err != nil {
		return data.Value{}
	}
	if len(d.buf) < 1 {
		d.fail("truncated value kind")
		return data.Value{}
	}
	kind := data.ValueKind(d.buf[0])
	d.buf = d.buf[1:]
	switch kind {
	case data.KindNull:
		return data.Value{}
	case data.KindString:
		return data.Value{Kind: data.KindString, Str: d.string()}
	case data.KindNumber:
		return data.Value{Kind: data.KindNumber, Num: d.float()}
	case data.KindBool:
		if len(d.buf) < 1 {
			d.fail("truncated bool")
			return data.Value{}
		}
		b := d.buf[0] != 0
		d.buf = d.buf[1:]
		return data.Value{Kind: data.KindBool, Bool: b}
	case data.KindTime:
		return data.Value{Kind: data.KindTime, Time: time.Unix(0, d.varint()).UTC()}
	default:
		d.fail(fmt.Sprintf("unknown value kind %d", kind))
		return data.Value{}
	}
}
