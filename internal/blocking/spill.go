package blocking

// Memory-budgeted external pair generation. When the raw pair codes of
// a pass would exceed the configured budget, generation spills sorted
// runs of (code, position) entries to temp files and never holds more
// than ~budget bytes of pair state in RAM:
//
//   phase A  per shard, in parallel: expand blocks into a bounded
//            entry buffer, filled in ascending position; on overflow
//            radix-sort it by code (stable, so (code, pos) order),
//            compact duplicate codes, and write it as one run file.
//   phase B  one k-way loser-tree merge of all runs by (code, pos):
//            the first entry of each code is its global first
//            occurrence. Each one is appended to the position bucket
//            that covers its position — a contiguous position range
//            whose dense code array fits in half the budget.
//   replay   on every EmitCodes, each bucket in turn is read into a
//            dense array indexed by position, with a presence bit per
//            slot, and its present slots are emitted in order: the
//            deduplicated codes in the exact first-seen order of the
//            in-memory sweep, with no second merge.
//
// The result is byte-identical to the in-memory sweep; only the peak
// memory differs.

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"os"
	"path/filepath"

	"repro/internal/parallel"
)

// pe is one raw pair emission: the packed pair code plus its global
// position in the sequential emission order (sorted keys, in-block
// input order). The position makes stable dedup mergeable: the global
// first occurrence of a code is simply its minimum position.
type pe struct{ code, pos uint64 }

// radixSortPE sorts ents by code with a stable LSD radix sort over the
// code's eight bytes, skipping every byte all the codes share, and
// returns the scratch buffer — tmp, or a new one when tmp is too short —
// for the next call. Stability is what the callers rely on: entries
// that arrive in ascending position leave in (code, pos) order.
func radixSortPE(ents, tmp []pe) []pe {
	n := len(ents)
	if cap(tmp) < n {
		tmp = make([]pe, n)
	}
	tmp = tmp[:n]
	if n < 2 {
		return tmp
	}
	var counts [8][256]int
	for _, e := range ents {
		c := e.code
		counts[0][byte(c)]++
		counts[1][byte(c>>8)]++
		counts[2][byte(c>>16)]++
		counts[3][byte(c>>24)]++
		counts[4][byte(c>>32)]++
		counts[5][byte(c>>40)]++
		counts[6][byte(c>>48)]++
		counts[7][byte(c>>56)]++
	}
	src, dst := ents, tmp
	first := ents[0].code
	for d := range counts {
		shift := uint(8 * d)
		cnt := &counts[d]
		if cnt[byte(first>>shift)] == n {
			continue // every code has this byte
		}
		off := 0
		for i, c := range cnt {
			cnt[i] = off
			off += c
		}
		for _, e := range src {
			b := byte(e.code >> shift)
			dst[cnt[b]] = e
			cnt[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &ents[0] {
		copy(ents, src)
	}
	return tmp
}

// sortCompactEntries sorts entries filled in ascending position into
// (code, pos) order and keeps only the first entry of each code — its
// minimum position — in place. It returns the kept entries and the
// radix scratch buffer for reuse.
func sortCompactEntries(ents, tmp []pe) ([]pe, []pe) {
	tmp = radixSortPE(ents, tmp)
	out := ents[:0]
	for i, e := range ents {
		if i == 0 || e.code != ents[i-1].code {
			out = append(out, e)
		}
	}
	return out, tmp
}

// peSize is the on-disk size of one (code, position) entry.
const peSize = 16

// minRunEnts floors the run-buffer capacity so a degenerate budget
// cannot explode into one file per handful of pairs.
const minRunEnts = 256

// runCap sizes one of parts concurrent run buffers against budget.
// runCap(budget, 1) is also the span of one position bucket: its
// replay array holds 8 of the 16 bytes an entry takes, so the dense
// codes and their presence bits fit in about half the budget.
func runCap(budget int64, parts int) int {
	if parts < 1 {
		parts = 1
	}
	c := budget / peSize / int64(parts)
	if c < minRunEnts {
		return minRunEnts
	}
	return int(c)
}

// peSource yields entries in nondecreasing (code, pos) order; ok=false
// marks exhaustion.
type peSource interface {
	next() (e pe, ok bool, err error)
}

// sliceSource adapts an in-memory sorted entry slice to peSource.
type sliceSource struct {
	ents []pe
	i    int
}

func (s *sliceSource) next() (pe, bool, error) {
	if s.i >= len(s.ents) {
		return pe{}, false, nil
	}
	e := s.ents[s.i]
	s.i++
	return e, true, nil
}

// loserTree is a tournament tree over k sorted sources: head() is the
// minimum entry across all of them in (code, pos) order, advance()
// refills one source and replays only that leaf's path to the root —
// log(k) comparisons per emitted entry instead of k.
type loserTree struct {
	src  []peSource
	head []pe
	ok   []bool
	node []int // node[j], j>=1: loser parked at internal node j; node[0]: winner
}

func newLoserTree(src []peSource) (*loserTree, error) {
	k := len(src)
	t := &loserTree{
		src:  src,
		head: make([]pe, k),
		ok:   make([]bool, k),
		node: make([]int, max(k, 1)),
	}
	for i := range src {
		if err := t.load(i); err != nil {
			return nil, err
		}
	}
	t.build()
	return t, nil
}

func (t *loserTree) load(i int) error {
	e, ok, err := t.src[i].next()
	if err != nil {
		return err
	}
	t.head[i], t.ok[i] = e, ok
	return nil
}

// beats reports whether source a wins (sorts before) source b.
// Exhausted sources always lose; ties break to the lower index so the
// order is total even for equal keys.
func (t *loserTree) beats(a, b int) bool {
	switch {
	case !t.ok[a]:
		return false
	case !t.ok[b]:
		return true
	}
	x, y := t.head[a], t.head[b]
	if x.code != y.code {
		return x.code < y.code
	}
	if x.pos != y.pos {
		return x.pos < y.pos
	}
	return a < b
}

// build plays the full tournament: leaves sit at win[k+i], internal
// node j compares the winners of its children 2j and 2j+1 (children
// indices are always larger, so a single descending sweep suffices).
func (t *loserTree) build() {
	k := len(t.src)
	if k == 0 {
		return
	}
	if k == 1 {
		t.node[0] = 0
		return
	}
	win := make([]int, 2*k)
	for i := 0; i < k; i++ {
		win[k+i] = i
	}
	for j := k - 1; j >= 1; j-- {
		a, b := win[2*j], win[2*j+1]
		if t.beats(a, b) {
			win[j], t.node[j] = a, b
		} else {
			win[j], t.node[j] = b, a
		}
	}
	t.node[0] = win[1]
}

// top returns the current minimum entry and its source; ok=false when
// every source is exhausted.
func (t *loserTree) top() (pe, int, bool) {
	if len(t.src) == 0 {
		return pe{}, 0, false
	}
	w := t.node[0]
	if !t.ok[w] {
		return pe{}, 0, false
	}
	return t.head[w], w, true
}

// advance refills source i (the last winner) and replays its leaf-to-
// root path against the parked losers.
func (t *loserTree) advance(i int) error {
	if err := t.load(i); err != nil {
		return err
	}
	k := len(t.src)
	w := i
	for j := (k + i) / 2; j >= 1; j /= 2 {
		if t.beats(t.node[j], w) {
			w, t.node[j] = t.node[j], w
		}
	}
	t.node[0] = w
	return nil
}

// mergePE streams the k-way merge of sorted sources to emit in
// nondecreasing (code, pos) order.
func mergePE(src []peSource, emit func(pe) error) error {
	t, err := newLoserTree(src)
	if err != nil {
		return err
	}
	for {
		e, i, ok := t.top()
		if !ok {
			return nil
		}
		if err := emit(e); err != nil {
			return err
		}
		if err := t.advance(i); err != nil {
			return err
		}
	}
}

// putPE encodes e into b as one fixed-width little-endian entry.
func putPE(b *[peSize]byte, e pe) {
	binary.LittleEndian.PutUint64(b[:8], e.code)
	binary.LittleEndian.PutUint64(b[8:], e.pos)
}

// writeRun writes ents, in order, as the run file dir/name of
// fixed-width little-endian entries and returns its path. bw is reset
// onto the file, so one write buffer serves any number of runs.
func writeRun(bw *bufio.Writer, dir, name string, ents []pe) (string, error) {
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("blocking: create spill run: %w", err)
	}
	bw.Reset(f)
	var b [peSize]byte
	for _, e := range ents {
		putPE(&b, e)
		if _, err = bw.Write(b[:]); err != nil {
			break
		}
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("blocking: write spill run: %w", err)
	}
	return path, nil
}

// runBlock is how many entries a runReader reads from its file at once.
const runBlock = 1 << 12

// runReader streams one run file back as a peSource, reading it in
// blocks of whole entries and decoding each entry from the block.
type runReader struct {
	f   *os.File
	buf []byte // the current block; entries from off on are unread
	off int
}

func openRun(path string) (*runReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("blocking: open spill run: %w", err)
	}
	return &runReader{f: f, buf: make([]byte, 0, runBlock*peSize)}, nil
}

func (r *runReader) next() (pe, bool, error) {
	if r.off == len(r.buf) {
		n, err := io.ReadFull(r.f, r.buf[:cap(r.buf)])
		if err == io.EOF {
			return pe{}, false, nil
		}
		// A short block is the run's last; it must end on an entry.
		if err != nil && (err != io.ErrUnexpectedEOF || n%peSize != 0) {
			return pe{}, false, fmt.Errorf("blocking: read spill run: %w", err)
		}
		r.buf, r.off = r.buf[:n], 0
	}
	b := r.buf[r.off : r.off+peSize]
	r.off += peSize
	return pe{
		code: binary.LittleEndian.Uint64(b[:8]),
		pos:  binary.LittleEndian.Uint64(b[8:]),
	}, true, nil
}

func (r *runReader) close() error { return r.f.Close() }

// openRuns opens every path, closing the opened prefix on failure.
func openRuns(paths []string) ([]*runReader, error) {
	rs := make([]*runReader, 0, len(paths))
	for _, p := range paths {
		r, err := openRun(p)
		if err != nil {
			closeRuns(rs)
			return nil, err
		}
		rs = append(rs, r)
	}
	return rs, nil
}

func closeRuns(rs []*runReader) {
	for _, r := range rs {
		if r != nil {
			r.close()
		}
	}
}

// posBucket is one position bucket of a spill set: the run file of the
// n deduplicated entries whose positions fall in [lo, hi), in any order.
type posBucket struct {
	path   string
	lo, hi uint64
	n      int
}

// load places each entry of the bucket's run at codes[pos-lo] and sets
// its bit in present (both at least hi-lo slots, present cleared). A
// position outside the bucket or seen twice, or an entry count other
// than n — a run cut even on an entry boundary reads as a clean end of
// file — is a spill read error.
func (b posBucket) load(codes, present []uint64) error {
	r, err := openRun(b.path)
	if err != nil {
		return err
	}
	defer r.close()
	read := 0
	for {
		e, ok, err := r.next()
		switch {
		case err != nil:
			return err
		case !ok:
			if read != b.n {
				return fmt.Errorf("blocking: read spill run: %d of %d pairs on disk", read, b.n)
			}
			return nil
		case e.pos < b.lo || e.pos >= b.hi:
			return fmt.Errorf("blocking: read spill run: position %d outside its bucket [%d, %d)", e.pos, b.lo, b.hi)
		}
		i := e.pos - b.lo
		bit := uint64(1) << (i & 63)
		if present[i>>6]&bit != 0 {
			return fmt.Errorf("blocking: read spill run: position %d twice", e.pos)
		}
		present[i>>6] |= bit
		codes[i] = e.code
		read++
	}
}

// spillSet is the disk-resident backing of a budgeted candidate set:
// position buckets replayed in order on every read. The set that holds
// it owns the run directory alone; CandidateSet.Close removes it.
type spillSet struct {
	dir     string
	buckets []posBucket // ascending, disjoint position ranges
	n       int         // unique codes
}

// emit replays the deduplicated codes in first-seen order, one bucket
// at a time: its entries are placed by position into one dense code
// array, and the present slots are emitted in order. Returning false
// from f stops early. A bucket that fails to load (see posBucket.load)
// is an error.
func (s *spillSet) emit(f func(code uint64) bool) error {
	width := 0
	for _, b := range s.buckets {
		width = max(width, int(b.hi-b.lo))
	}
	codes := make([]uint64, width)
	present := make([]uint64, (width+63)/64)
	for _, b := range s.buckets {
		live := present[:(b.hi-b.lo+63)/64]
		clear(live)
		if err := b.load(codes, live); err != nil {
			return err
		}
		for w, word := range live {
			for ; word != 0; word &= word - 1 {
				if !f(codes[w<<6|bits.TrailingZeros64(word)]) {
					return nil
				}
			}
		}
	}
	return nil
}

// spillShard is phase A for one shard: expand blocks [rng[0], rng[1])
// in raw emission order (offs supplies each block's global starting
// position) through a capEnts-entry buffer, writing each full (sorted,
// locally deduplicated) buffer as one run file. One radix scratch
// buffer and one write buffer serve all of the shard's runs. Returns
// the run paths in generation order and the entry count written.
func (x *Indexed) spillShard(shard int, rng [2]int, offs []int, dir string, capEnts int) (paths []string, written int64, err error) {
	bw := bufio.NewWriterSize(nil, 1<<18)
	var tmp []pe
	flush := func(buf []pe) error {
		if len(buf) == 0 {
			return nil
		}
		var ents []pe
		ents, tmp = sortCompactEntries(buf, tmp)
		path, err := writeRun(bw, dir, fmt.Sprintf("a-%03d-%05d.run", shard, len(paths)), ents)
		if err != nil {
			return err
		}
		paths = append(paths, path)
		written += int64(len(ents))
		return nil
	}
	buf := make([]pe, 0, capEnts)
	for b := rng[0]; b < rng[1]; b++ {
		row := x.rows[b]
		pos := uint64(offs[b])
		for i := 0; i < len(row); i++ {
			for j := i + 1; j < len(row); j++ {
				buf = append(buf, pe{code: pairCode(row[i], row[j]), pos: pos})
				pos++
				if len(buf) == cap(buf) {
					if err := flush(buf); err != nil {
						return paths, written, err
					}
					buf = buf[:0]
				}
			}
		}
	}
	err = flush(buf)
	return paths, written, err
}

// mergeToBuckets is phase B: one k-way merge of the phase-A runs by
// (code, pos) deduplicates globally — the first entry of a code run
// carries its minimum position, i.e. its global first occurrence — and
// appends each such entry to the position bucket that covers it. The
// nraw positions split into buckets of runCap(budget, 1) positions.
func mergeToBuckets(ctx context.Context, dir string, runs []string, nraw int, budget int64) (ss *spillSet, err error) {
	span := uint64(runCap(budget, 1))
	ss = &spillSet{dir: dir, buckets: make([]posBucket, (uint64(nraw)+span-1)/span)}
	ws := make([]*bufio.Writer, len(ss.buckets))
	files := make([]*os.File, 0, len(ss.buckets))
	defer func() {
		for _, f := range files {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("blocking: write spill run: %w", cerr)
			}
		}
	}()
	for i := range ss.buckets {
		b := &ss.buckets[i]
		b.lo = uint64(i) * span
		b.hi = min(b.lo+span, uint64(nraw))
		b.path = filepath.Join(dir, fmt.Sprintf("b-%05d.run", i))
		f, err := os.Create(b.path)
		if err != nil {
			return nil, fmt.Errorf("blocking: create spill run: %w", err)
		}
		files = append(files, f)
		ws[i] = bufio.NewWriterSize(f, runBlock*peSize)
	}
	rs, err := openRuns(runs)
	if err != nil {
		return nil, err
	}
	defer closeRuns(rs)
	src := make([]peSource, len(rs))
	for i, r := range rs {
		src[i] = r
	}
	seen := 0
	var last uint64
	have := false
	var ent [peSize]byte
	err = mergePE(src, func(en pe) error {
		seen++
		if ctx != nil && seen&0xffff == 0 {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
		}
		if have && en.code == last {
			return nil
		}
		last, have = en.code, true
		if en.pos >= uint64(nraw) {
			return fmt.Errorf("blocking: read spill run: position %d past the %d raw pairs", en.pos, nraw)
		}
		i := en.pos / span
		ss.buckets[i].n++
		ss.n++
		putPE(&ent, en)
		if _, err := ws[i].Write(ent[:]); err != nil {
			return fmt.Errorf("blocking: write spill run: %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, w := range ws {
		if err := w.Flush(); err != nil {
			return nil, fmt.Errorf("blocking: write spill run: %w", err)
		}
	}
	return ss, nil
}

// spillCandidates is the external strategy behind CandidateSet: pair
// state on disk, ~budget bytes in RAM, byte-identical output.
func (x *Indexed) spillCandidates() *CandidateSet {
	e := x.eng
	reg := e.cfg.Obs
	offs := pairOffsets(x.rows)
	nraw := offs[len(x.rows)]
	dir, err := os.MkdirTemp(e.dir, "bdi-spill-*")
	if e.sink.check(err) {
		return e.set(nil)
	}
	fail := func(err error) *CandidateSet {
		os.RemoveAll(dir)
		e.sink.check(err)
		return e.set(nil)
	}

	// Phase A: parallel run generation over contiguous block ranges of
	// roughly equal pair weight, one per configured shard. The budget is
	// split across shards because their buffers coexist.
	ranges := parallel.WeightedRanges(offs, max(e.shards, 1))
	type shardOut struct {
		paths   []string
		written int64
		err     error
	}
	outs := make([]shardOut, len(ranges))
	capA := runCap(e.budget, len(ranges))
	ferr := parallel.ForEach(e.cfg, len(ranges), func(s int) {
		o := &outs[s]
		o.paths, o.written, o.err = x.spillShard(s, ranges[s], offs, dir, capA)
	})
	var runs []string
	var written int64
	for _, o := range outs {
		if ferr == nil {
			ferr = o.err
		}
		runs = append(runs, o.paths...)
		written += o.written
	}
	if ferr != nil {
		return fail(ferr)
	}
	reg.Counter("blocking.spill_runs").Add(int64(len(runs)))
	reg.Counter("blocking.spill_bytes").Add(written * peSize)
	reg.Counter("blocking.pairs_spilled").Add(int64(nraw))

	reg.Counter("blocking.spill_merges").Add(1)
	ss, err := mergeToBuckets(e.cfg.Ctx, dir, runs, nraw, e.budget)
	if err != nil {
		return fail(err)
	}
	// The phase-A runs are dead once merged; drop them so the set keeps
	// only its unique pair codes on disk, not raw + unique.
	for _, p := range runs {
		os.Remove(p)
	}
	reg.Counter("blocking.spill_bytes").Add(int64(ss.n) * peSize)
	reg.Counter("blocking.spill_merge_runs").Add(int64(len(ss.buckets)))
	return &CandidateSet{eng: e, ext: ss}
}
