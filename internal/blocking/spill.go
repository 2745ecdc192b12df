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
//            occurrence. Unique entries stream into a by-code file
//            (sorted membership stream for unions) and into bounded
//            buffers re-sorted by position and written as emission
//            runs.
//   phase C  on every EmitPairs, a k-way merge of the emission runs
//            by position replays the deduplicated codes in the exact
//            first-seen order of the in-memory sweep.
//
// The result is byte-identical to the unsharded in-memory path; only
// the peak memory differs.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/parallel"
)

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
	less func(a, b pe) bool
}

func newLoserTree(src []peSource, less func(a, b pe) bool) (*loserTree, error) {
	k := len(src)
	t := &loserTree{
		src:  src,
		head: make([]pe, k),
		ok:   make([]bool, k),
		node: make([]int, max(k, 1)),
		less: less,
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
	case t.less(t.head[a], t.head[b]):
		return true
	case t.less(t.head[b], t.head[a]):
		return false
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
// nondecreasing less order.
func mergePE(src []peSource, less func(a, b pe) bool, emit func(pe) error) error {
	t, err := newLoserTree(src, less)
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

// runWriter writes fixed-width little-endian entries to one run file.
type runWriter struct {
	path string
	f    *os.File
	bw   *bufio.Writer
	n    int64 // entries written
}

func createRun(dir, name string) (*runWriter, error) {
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("blocking: create spill run: %w", err)
	}
	return &runWriter{path: path, f: f, bw: bufio.NewWriterSize(f, 1<<18)}, nil
}

func (w *runWriter) write(e pe) error {
	var b [peSize]byte
	binary.LittleEndian.PutUint64(b[:8], e.code)
	binary.LittleEndian.PutUint64(b[8:], e.pos)
	w.n++
	_, err := w.bw.Write(b[:])
	return err
}

func (w *runWriter) close() error {
	ferr := w.bw.Flush()
	cerr := w.f.Close()
	if ferr != nil {
		return ferr
	}
	return cerr
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
// emission runs replayed by position on every read, plus the by-code
// stream used for union membership. The run directory is reference-
// counted so unions can share it; the last release removes it.
type spillSet struct {
	dir      string
	byCode   string   // unique (code, pos) entries sorted by code
	emitRuns []string // each sorted by position; k-way merged on emit
	n        int      // unique codes
	refs     atomic.Int32
	reg      *obs.Registry
}

func (s *spillSet) retain() *spillSet {
	s.refs.Add(1)
	return s
}

func (s *spillSet) release() error {
	if s.refs.Add(-1) > 0 {
		return nil
	}
	return os.RemoveAll(s.dir)
}

// emit replays the deduplicated codes in first-seen order by merging
// the emission runs on position. Returning false from f stops early.
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
	err = mergePE(src, peLessPos, func(e pe) error {
		if !f(e.code) {
			return errStopEmit
		}
		return nil
	})
	if err == errStopEmit {
		return nil
	}
	return err
}

// filterSorted sweeps the by-code stream against an ascending probe
// slice, calling mark for every probe code present in the set. One
// sequential read, no probe-sized state beyond the caller's.
func (s *spillSet) filterSorted(sorted []uint64, mark func(code uint64)) error {
	if len(sorted) == 0 {
		return nil
	}
	r, err := openRun(s.byCode)
	if err != nil {
		return err
	}
	defer r.close()
	i := 0
	for {
		e, ok, err := r.next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		for i < len(sorted) && sorted[i] < e.code {
			i++
		}
		if i == len(sorted) {
			return nil
		}
		if sorted[i] == e.code {
			mark(e.code)
			i++
		}
	}
}

// spillShard is phase A for one shard: expand blocks [rng[0], rng[1])
// through a capEnts-entry buffer, writing each full (sorted, locally
// deduplicated) buffer as one run file. Returns the run paths in
// generation order and the entry count written.
func (x *Indexed) spillShard(shard int, rng [2]int, offs []int, dir string, capEnts int) (paths []string, written int64, err error) {
	buf := make([]pe, 0, capEnts)
	seq := 0
	flush := func(b []pe) ([]pe, error) {
		if len(b) == 0 {
			return b, nil
		}
		ents := sortCompactEntries(b)
		w, werr := createRun(dir, fmt.Sprintf("a-%03d-%05d.run", shard, seq))
		if werr != nil {
			return b, werr
		}
		seq++
		for _, e := range ents {
			if werr := w.write(e); werr != nil {
				w.close()
				return b, werr
			}
		}
		if werr := w.close(); werr != nil {
			return b, werr
		}
		paths = append(paths, w.path)
		written += w.n
		return b[:0], nil
	}
	buf, err = x.appendBlockEntries(rng[0], rng[1], offs, buf, flush)
	if err == nil {
		_, err = flush(buf)
	}
	return paths, written, err
}

// spillCandidates is the external strategy behind CandidateSet: pair
// state on disk, ~budget bytes in RAM, byte-identical output.
func (x *Indexed) spillCandidates(offs []int) *CandidateSet {
	reg := x.cfg.Obs
	nraw := offs[len(x.rows)]
	dir, err := os.MkdirTemp(x.dir, "bdi-spill-*")
	if x.sink.check(err) {
		return &CandidateSet{ids: x.ids}
	}
	fail := func(err error) *CandidateSet {
		os.RemoveAll(dir)
		x.sink.check(err)
		return &CandidateSet{ids: x.ids}
	}

	// Phase A: parallel sharded run generation. The budget is split
	// across shards because their buffers coexist.
	ranges := x.shardPlan(offs, x.shards)
	type shardOut struct {
		paths   []string
		written int64
		err     error
	}
	outs := make([]shardOut, len(ranges))
	capA := runCap(x.budget, len(ranges))
	ferr := parallel.ForEach(x.cfg, len(ranges), func(s int) {
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
	// its global first occurrence. Unique entries stream into the
	// by-code membership file and into position-sorted emission runs.
	ss := &spillSet{dir: dir, reg: reg}
	ss.refs.Store(1)
	rs, err := openRuns(runs)
	if err != nil {
		return fail(err)
	}
	src := make([]peSource, len(rs))
	for i, r := range rs {
		src[i] = r
	}
	reg.Counter("blocking.spill_merges").Add(1)
	bw, err := createRun(dir, "bycode.run")
	if err != nil {
		closeRuns(rs)
		return fail(err)
	}
	cbuf := make([]pe, 0, runCap(x.budget, 1))
	cseq := 0
	flushC := func() error {
		if len(cbuf) == 0 {
			return nil
		}
		slices.SortFunc(cbuf, func(a, b pe) int {
			if peLessPos(a, b) {
				return -1
			}
			return 1
		})
		w, err := createRun(dir, fmt.Sprintf("c-%05d.run", cseq))
		if err != nil {
			return err
		}
		cseq++
		for _, e := range cbuf {
			if err := w.write(e); err != nil {
				w.close()
				return err
			}
		}
		if err := w.close(); err != nil {
			return err
		}
		ss.emitRuns = append(ss.emitRuns, w.path)
		cbuf = cbuf[:0]
		return nil
	}
	ctx := x.cfg.Ctx
	seen := 0
	var last uint64
	have := false
	err = mergePE(src, peLessCode, func(e pe) error {
		seen++
		if ctx != nil && seen&0xffff == 0 {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
		}
		if have && e.code == last {
			return nil
		}
		last, have = e.code, true
		ss.n++
		if err := bw.write(e); err != nil {
			return err
		}
		cbuf = append(cbuf, e)
		if len(cbuf) == cap(cbuf) {
			return flushC()
		}
		return nil
	})
	closeRuns(rs)
	if err == nil {
		err = flushC()
	}
	if cerr := bw.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fail(err)
	}
	// The phase-A runs are dead once merged; drop them so peak disk is
	// ~2× the unique pair codes, not raw + unique.
	for _, p := range runs {
		os.Remove(p)
	}
	ss.byCode = bw.path
	reg.Counter("blocking.spill_bytes").Add((bw.n + int64(ss.n)) * peSize)
	reg.Counter("blocking.spill_merge_runs").Add(int64(len(ss.emitRuns)))
	return &CandidateSet{ids: x.ids, ext: ss, sink: x.sink}
}
