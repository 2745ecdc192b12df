package core

import (
	"cmp"
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
	"repro/internal/obs"
)

// Stream state codec: a versioned binary format holding everything a
// resumed stream needs to replay byte-identically — epoch counter,
// per-source cursors, fusion accuracy estimates, and the incremental
// linker's sources, records (insertion order — the probe order, from
// which a restore rebuilds the posting lists) and partition (canonical).
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
// Version history: v1 has a posting-list section after the records and
// ends after the comparisons counter; v2 appends a delete counter and a
// tombstone section; v3 drops both derived sections. Encoding writes
// v3; decoding accepts all three, skipping the sections v3 dropped, so
// an older file restores with posting lists rebuilt from its live
// records, its tombstones gone.
const (
	streamStateMagic     = "BDISTATE"
	streamStateVersion   = 3
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
	start := time.Now()
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
	reportSave(s.reg(), time.Since(start), len(buf))
	return nil
}

// reportSave records one save — its count, wall time and size — in
// reg; with no registry attached it costs no allocation.
func reportSave(reg *obs.Registry, took time.Duration, bytes int) {
	reg.Counter("stream.saves").Inc()
	reg.Timer("stream.save_time").Observe(took)
	reg.Gauge("stream.state_bytes").Set(float64(bytes))
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
// serialized, so the codec persists state, not configuration. A missing
// or corrupt primary falls back to the rotated path+".bak" with a
// logged warning; any other read error is returned as is, and when both
// files are unusable the primary's error is.
func LoadStream(path string, cfg StreamConfig, publish func(*Snapshot)) (*Stream, error) {
	s, err := loadStreamFile(path, cfg, publish)
	if err == nil {
		return s, nil
	}
	if !errors.Is(err, os.ErrNotExist) && !errors.Is(err, ErrBadState) {
		return nil, err
	}
	bak := path + ".bak"
	s2, err2 := loadStreamFile(bak, cfg, publish)
	if err2 != nil {
		return nil, err
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
	s.stateLen = len(buf)
	return s, nil
}

// ResumeStream restores from cfg.StatePath through LoadStream and
// starts fresh when neither the state file nor its backup exists — the
// entry point both -stream commands use.
func ResumeStream(cfg StreamConfig, publish func(*Snapshot)) (*Stream, error) {
	if cfg.StatePath != "" {
		s, err := LoadStream(cfg.StatePath, cfg, publish)
		if !errors.Is(err, os.ErrNotExist) {
			return s, err
		}
	}
	return NewStream(cfg, publish)
}

// encodeState renders the state into a buffer the size of the previous
// one (64 KiB before any), so a steady stream's save grows it at most
// once.
func (s *Stream) encodeState() []byte {
	b := make([]byte, 0, cmp.Or(s.stateLen, 1<<16))
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
		b = appendStrings(b, src.CopiesFrom)
	}
	b = binary.AppendUvarint(b, uint64(len(st.Records)))
	for _, r := range st.Records {
		b = appendString(b, r.ID)
		b = appendString(b, r.SourceID)
		b = appendString(b, r.EntityID)
		fields := r.Fields() // sorted by name
		b = binary.AppendUvarint(b, uint64(len(fields)))
		for _, f := range fields {
			b = appendString(b, f.Attr)
			b = appendValue(b, f.Value)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(st.Partition)))
	for _, set := range st.Partition {
		b = appendStrings(b, set)
	}
	b = binary.AppendUvarint(b, uint64(st.Comparisons))
	b = binary.AppendUvarint(b, uint64(s.deleted))

	crc := crc32.ChecksumIEEE(b)
	b = binary.LittleEndian.AppendUint32(b, crc)
	s.stateLen = len(b)
	return b
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
	d := &stateDecoder{buf: payload[len(streamStateMagic):], names: map[string]string{}}
	version := d.uvarint()
	if version < streamStateVersionV1 || version > streamStateVersion {
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

	st := &linkage.IncrementalState{}
	for n := d.uvarint(); n > 0 && d.err == nil; n-- {
		src := &data.Source{ID: d.string(), Name: d.string(), TrueAccuracy: d.float()}
		for m := d.uvarint(); m > 0 && d.err == nil; m-- {
			src.CopiesFrom = append(src.CopiesFrom, d.string())
		}
		st.Sources = append(st.Sources, src)
	}
	for n := d.uvarint(); n > 0 && d.err == nil; n-- {
		id := d.string()
		srcID := d.name()
		r := data.NewRecord(id, srcID)
		r.EntityID = d.string()
		// The cells arrive sorted, so each Set appends. The count is
		// untrusted: room is reserved only for as many cells as the
		// remaining bytes can hold (a name length and a kind byte each).
		m := d.uvarint()
		r.Grow(int(min(m, uint64(len(d.buf)/2))))
		for ; m > 0 && d.err == nil; m-- {
			a := d.name()
			r.Set(a, d.value())
		}
		st.Records = append(st.Records, r)
	}
	if version < 3 {
		d.skipKeyedLists() // postings
	}
	for n := d.uvarint(); n > 0 && d.err == nil; n-- {
		st.Partition = append(st.Partition, d.strings())
	}
	st.Comparisons = int(d.uvarint())
	s.deleted = 0
	if version >= 2 {
		s.deleted = int64(d.uvarint())
	}
	if version == 2 {
		d.skipKeyedLists() // tombstones
	}
	if d.err != nil {
		return fmt.Errorf("%w: %v", ErrBadState, d.err)
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadState, len(d.buf))
	}

	inc, err := linkage.FromState(st, s.streamKey, s.matcher)
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

// appendStrings writes a uvarint count and then each string.
func appendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
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
// section loops above can read unconditionally. names holds the strings
// name has read so far.
type stateDecoder struct {
	buf   []byte
	err   error
	names map[string]string
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

// bytes reads a length-prefixed string's bytes, in place.
func (d *stateDecoder) bytes() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if uint64(len(d.buf)) < n {
		d.fail("truncated string")
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

func (d *stateDecoder) string() string { return string(d.bytes()) }

// name reads a string that many records repeat — an attribute name, a
// source ID — as the one copy of it the load holds.
func (d *stateDecoder) name() string {
	b := d.bytes()
	s, ok := d.names[string(b)]
	if !ok {
		s = string(b)
		d.names[s] = s
	}
	return s
}

// strings reads what appendStrings wrote.
func (d *stateDecoder) strings() []string {
	out := make([]string, 0, 4)
	for n := d.uvarint(); n > 0 && d.err == nil; n-- {
		out = append(out, d.string())
	}
	return out
}

// skipKeyedLists reads past a section of (string, string list) pairs —
// the posting and tombstone sections of v1 and v2 files.
func (d *stateDecoder) skipKeyedLists() {
	for n := d.uvarint(); n > 0 && d.err == nil; n-- {
		d.string()
		d.strings()
	}
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
