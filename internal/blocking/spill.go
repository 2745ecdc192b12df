package blocking

// Memory-budgeted external pair generation. When the raw pair codes of
// a pass would exceed the configured budget, generation spills sorted
// runs of (code, position) entries to temp files and never holds more
// than ~budget bytes of pair state in RAM:
//
//   phase A  per shard, in parallel: expand blocks into a bounded
//            entry buffer; on overflow sort by (code, pos), compact
//            duplicate codes, and write the buffer as one run file.
//   phase B  one k-way loser-tree merge of all runs by (code, pos):
//            the first entry of each code is its global first
//            occurrence. Unique entries fill a bounded buffer that is
//            re-sorted by position and written as one emission run —
//            phase B writes this one stream.
//   phase C  on every EmitCodes, a k-way merge of the emission runs
//            by position replays the deduplicated codes in the exact
//            first-seen order of the in-memory sweep.
//
// The result is byte-identical to the in-memory sweep; only the peak
// memory differs.

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/obs"
	"repro/internal/parallel"
)

// pe is one raw pair emission: the packed pair code plus its global
// position in the sequential emission order (sorted keys, in-block
// input order). The position makes stable dedup mergeable: the global
// first occurrence of a code is simply its minimum position.
type pe struct{ code, pos uint64 }

// byCode orders entries by (code, pos) — the sort and merge key for
// dedup, where the first entry of a code run is its first global
// occurrence.
func byCode(a, b pe) int {
	if c := cmp.Compare(a.code, b.code); c != 0 {
		return c
	}
	return cmp.Compare(a.pos, b.pos)
}

// byPos orders entries by position — the sort and merge key for
// restoring emission order (positions are globally unique).
func byPos(a, b pe) int { return cmp.Compare(a.pos, b.pos) }

// sortCompactEntries sorts entries by (code, pos) and keeps only the
// first entry of each code — its minimum position — in place.
func sortCompactEntries(ents []pe) []pe {
	slices.SortFunc(ents, byCode)
	out := ents[:0]
	for i, e := range ents {
		if i == 0 || e.code != ents[i-1].code {
			out = append(out, e)
		}
	}
	return out
}

// peSize is the on-disk size of one (code, position) entry.
const peSize = 16

// minRunEnts floors the run-buffer capacity so a degenerate budget
// cannot explode into one file per handful of pairs.
const minRunEnts = 256

// runCap sizes one of parts concurrent run buffers against budget.
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

// peSource yields entries in nondecreasing key order; ok=false marks
// exhaustion.
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
// minimum entry across all of them, advance() refills one source and
// replays only that leaf's path to the root — log(k) comparisons per
// emitted entry instead of k.
type loserTree struct {
	src  []peSource
	head []pe
	ok   []bool
	node []int // node[j], j>=1: loser parked at internal node j; node[0]: winner
	ord  func(a, b pe) int
}

func newLoserTree(src []peSource, ord func(a, b pe) int) (*loserTree, error) {
	k := len(src)
	t := &loserTree{
		src:  src,
		head: make([]pe, k),
		ok:   make([]bool, k),
		node: make([]int, max(k, 1)),
		ord:  ord,
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
	if c := t.ord(t.head[a], t.head[b]); c != 0 {
		return c < 0
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

// mergePE streams the k-way merge of ord-sorted sources to emit in
// nondecreasing ord order.
func mergePE(src []peSource, ord func(a, b pe) int, emit func(pe) error) error {
	t, err := newLoserTree(src, ord)
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

// writeRun writes ents, in order, as the run file dir/name of
// fixed-width little-endian entries and returns its path.
func writeRun(dir, name string, ents []pe) (string, error) {
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("blocking: create spill run: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<18)
	var b [peSize]byte
	for _, e := range ents {
		binary.LittleEndian.PutUint64(b[:8], e.code)
		binary.LittleEndian.PutUint64(b[8:], e.pos)
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

// runReader streams one run file back as a peSource.
type runReader struct {
	f  *os.File
	br *bufio.Reader
}

func openRun(path string) (*runReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("blocking: open spill run: %w", err)
	}
	return &runReader{f: f, br: bufio.NewReaderSize(f, 1<<16)}, nil
}

func (r *runReader) next() (pe, bool, error) {
	var b [peSize]byte
	if _, err := io.ReadFull(r.br, b[:]); err != nil {
		if err == io.EOF {
			return pe{}, false, nil
		}
		return pe{}, false, fmt.Errorf("blocking: read spill run: %w", err)
	}
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

// errStopEmit aborts a merge when the emission callback asks to stop;
// it never escapes to callers.
var errStopEmit = errors.New("blocking: emission stopped")

// spillSet is the disk-resident backing of a budgeted candidate set:
// emission runs replayed by position on every read. The set that holds
// it owns the run directory alone; CandidateSet.Close removes it.
type spillSet struct {
	dir      string
	emitRuns []string // each sorted by position; k-way merged on emit
	n        int      // unique codes
	reg      *obs.Registry
}

// emit replays the deduplicated codes in first-seen order by merging
// the emission runs on position. Returning false from f stops early.
// Runs that end early — even on an entry boundary, which reads as a
// clean end of file — are an error.
func (s *spillSet) emit(f func(code uint64) bool) error {
	s.reg.Counter("blocking.spill_merges").Add(1)
	rs, err := openRuns(s.emitRuns)
	if err != nil {
		return err
	}
	defer closeRuns(rs)
	src := make([]peSource, len(rs))
	for i, r := range rs {
		src[i] = r
	}
	emitted := 0
	err = mergePE(src, byPos, func(e pe) error {
		if !f(e.code) {
			return errStopEmit
		}
		emitted++
		return nil
	})
	switch {
	case err == errStopEmit:
		return nil
	case err == nil && emitted != s.n:
		return fmt.Errorf("blocking: read spill run: %d of %d pairs on disk", emitted, s.n)
	}
	return err
}

// spillShard is phase A for one shard: expand blocks [rng[0], rng[1])
// in raw emission order (offs supplies each block's global starting
// position) through a capEnts-entry buffer, writing each full (sorted,
// locally deduplicated) buffer as one run file. Returns the run paths
// in generation order and the entry count written.
func (x *Indexed) spillShard(shard int, rng [2]int, offs []int, dir string, capEnts int) (paths []string, written int64, err error) {
	flush := func(buf []pe) error {
		if len(buf) == 0 {
			return nil
		}
		ents := sortCompactEntries(buf)
		path, err := writeRun(dir, fmt.Sprintf("a-%03d-%05d.run", shard, len(paths)), ents)
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

	// Phase B: one k-way merge by (code, pos) deduplicates globally —
	// the first entry of a code run carries its minimum position, i.e.
	// its global first occurrence. Unique entries collect in a bounded
	// buffer; each full buffer is re-sorted by position and written as
	// one emission run.
	ss := &spillSet{dir: dir, reg: reg}
	rs, err := openRuns(runs)
	if err != nil {
		return fail(err)
	}
	src := make([]peSource, len(rs))
	for i, r := range rs {
		src[i] = r
	}
	reg.Counter("blocking.spill_merges").Add(1)
	cbuf := make([]pe, 0, runCap(e.budget, 1))
	flushC := func() error {
		if len(cbuf) == 0 {
			return nil
		}
		slices.SortFunc(cbuf, byPos)
		path, err := writeRun(dir, fmt.Sprintf("c-%05d.run", len(ss.emitRuns)), cbuf)
		if err != nil {
			return err
		}
		ss.emitRuns = append(ss.emitRuns, path)
		cbuf = cbuf[:0]
		return nil
	}
	ctx := e.cfg.Ctx
	seen := 0
	var last uint64
	have := false
	err = mergePE(src, byCode, func(en pe) error {
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
		ss.n++
		cbuf = append(cbuf, en)
		if len(cbuf) == cap(cbuf) {
			return flushC()
		}
		return nil
	})
	closeRuns(rs)
	if err == nil {
		err = flushC()
	}
	if err != nil {
		return fail(err)
	}
	// The phase-A runs are dead once merged; drop them so the set keeps
	// only its unique pair codes on disk, not raw + unique.
	for _, p := range runs {
		os.Remove(p)
	}
	reg.Counter("blocking.spill_bytes").Add(int64(ss.n) * peSize)
	reg.Counter("blocking.spill_merge_runs").Add(int64(len(ss.emitRuns)))
	return &CandidateSet{eng: e, ext: ss}
}
