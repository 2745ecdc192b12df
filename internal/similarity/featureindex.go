package similarity

import (
	"cmp"
	"math"
	"reflect"
	"slices"

	"repro/internal/data"
	"repro/internal/parallel"
	"repro/internal/tokenize"
)

// FeatureIndex caches everything pairwise matching needs about a
// record so each record is tokenized and normalised exactly once, no
// matter how many candidate pairs it appears in (O(window · #blocks)
// under blocking). Per compared field it stores the raw value and the
// sorted slice of the IDs of its distinct words (of its rendering when
// it is not a string) in the index's dictionary. With an index attached,
// RecordComparator scores set-metric fields of string values through
// allocation-free kernels that linearly merge the sorted ID slices
// instead of rebuilding hash sets per pair; every other field scores
// through Values on the cached value copies. Tokens hands a record's
// cached IDs to other consumers of its words, such as a stream's
// blocking keys.
//
// An index is built once (BuildFeatureIndex) or maintained record by
// record (Add, Remove) — BuildFeatureIndex equals Add in a loop, with
// the tokenising done in parallel. Mutation
// is single-goroutine; between mutations the index is safe for
// concurrent readers (the parallel matching workers). Kernel results
// are exactly equal to the uncached metrics, so attaching an index
// never changes match decisions for the built-in token metrics.
//
// An index belongs to the comparator that built it, and its entries are
// keyed by the record they were built from: the comparator reads an
// entry only for that very record, and only from its own index. A
// record the index does not hold — a foreign record carrying an indexed
// ID, say — and every record under an index another comparator built
// score as if no index were attached. A replaced record that is still
// indexed scores from its own features, so a caller replacing a record
// removes the old one (Remove) only to free its entry.
//
// Dictionary IDs are never reused, so a long-lived index accumulates
// the IDs of words no live record carries. The index does not bound
// that itself: whoever shares its dictionary knows every holder of its
// IDs, and calls Renumber once dead IDs outnumber held ones.
type FeatureIndex struct {
	rc      *RecordComparator // the comparator that built the index
	kernels []kernel
	dict    *tokenize.Dict
	feats   map[*data.Record][]fieldFeature // a record's features, one per field
}

// fieldFeature caches one record's comparison features for one field.
type fieldFeature struct {
	val    data.Value // copy of the record's value (null when absent)
	tokens []uint32   // sorted distinct word IDs (of the rendering for non-strings)
}

// kernel identifies the allocation-free scoring routine for a field.
type kernel uint8

const (
	kernelNone kernel = iota // unknown metric: fall back to Values
	kernelJaccard
	kernelDice
	kernelOverlap
	kernelCosine
)

// kernelOf resolves a field metric to its cached kernel by comparing
// function code pointers against the built-in set metrics; any other
// metric scores through Values. A metric built as a closure, such as
// TFIDF(c), could not be told apart this way even with a kernel for
// it: the Go inliner copies the closure into every call site that
// builds it, so its code pointer never matches a reference copy's. A
// TFIDF field therefore scores against the metric's own corpus.
func kernelOf(m Metric) kernel {
	if m == nil {
		return kernelNone
	}
	switch reflect.ValueOf(m).Pointer() {
	case jaccardPtr:
		return kernelJaccard
	case dicePtr:
		return kernelDice
	case overlapPtr:
		return kernelOverlap
	case cosinePtr:
		return kernelCosine
	}
	return kernelNone
}

var (
	jaccardPtr = reflect.ValueOf(Metric(Jaccard)).Pointer()
	dicePtr    = reflect.ValueOf(Metric(Dice)).Pointer()
	overlapPtr = reflect.ValueOf(Metric(Overlap)).Pointer()
	cosinePtr  = reflect.ValueOf(Metric(CosineSet)).Pointer()
)

// buildBlock is how many records BuildFeatureIndex tokenises at once.
const buildBlock = 1 << 12

// BuildFeatureIndex tokenizes every record's attributes that rc
// compares once and returns the resulting index, which only rc reads;
// with no records it is an empty index to maintain with Add and Remove.
// Nil records are skipped, and a record listed twice has one entry.
//
// Records go through in blocks of buildBlock, each in three passes. Up
// to workers goroutines (0 = NumCPU) tokenise the block's records and
// look each word up in the dictionary, which no one writes meanwhile;
// the calling goroutine interns the words the lookup missed, in record
// order; and the workers sort each set. So every token ID, set and
// kernel result equals that of Add called on the records in order.
func BuildFeatureIndex(records []*data.Record, rc *RecordComparator, workers int) *FeatureIndex {
	idx := &FeatureIndex{
		rc:      rc,
		kernels: make([]kernel, len(rc.fields)),
		dict:    tokenize.NewDict(),
		feats:   make(map[*data.Record][]fieldFeature, len(records)),
	}
	for i, f := range rc.fields {
		idx.kernels[i] = kernelOf(f.Metric)
	}
	// One block's scratch is the build's only transient state, reused
	// from block to block.
	nf := len(rc.fields)
	scratch := make([]fieldWords, min(len(records), buildBlock)*nf)
	missed := make([]bool, min(len(records), buildBlock))
	cfg := parallel.Config{Workers: workers}
	each := func(n int, f func(i int)) {
		if err := parallel.ForEach(cfg, n, f); err != nil {
			panic(err)
		}
	}
	for lo := 0; lo < len(records); lo += buildBlock {
		blk := records[lo:min(lo+buildBlock, len(records))]
		sc := scratch[:len(blk)*nf]
		each(len(blk), func(i int) {
			missed[i] = blk[i] != nil && idx.lookup(blk[i], sc[i*nf:(i+1)*nf])
		})
		for i := range blk {
			if missed[i] {
				idx.internMissed(sc[i*nf : (i+1)*nf])
			}
		}
		each(len(blk), func(i int) {
			if blk[i] != nil {
				for f := range sc[i*nf : (i+1)*nf] {
					sc[i*nf+f].distinct()
				}
			}
		})
		ntok := 0
		for i, r := range blk {
			if r != nil {
				for _, w := range sc[i*nf : (i+1)*nf] {
					ntok += len(w.ids)
				}
			}
		}
		// One slab of features and one of token IDs hold the block's
		// entries.
		ff, slab := make([]fieldFeature, len(sc)), make([]uint32, ntok)
		for i, r := range blk {
			if r == nil {
				continue
			}
			for f, w := range sc[i*nf : (i+1)*nf] {
				n := copy(slab, w.ids)
				ff[i*nf+f] = fieldFeature{val: w.val, tokens: slab[:n:n]}
				slab = slab[n:]
			}
			idx.feats[r] = ff[i*nf : (i+1)*nf : (i+1)*nf]
		}
	}
	return idx
}

// fieldWords is one field of one record on its way into the index: the
// value, the words of its rendering, and their IDs, noID for a word the
// dictionary lacked at lookup.
type fieldWords struct {
	val   data.Value
	words []string
	ids   []uint32
}

// noID marks a word lookup missed; a dictionary never hands it out.
const noID = math.MaxUint32

// lookup fills out with r's per-field words and the IDs the dictionary
// already holds for them, reusing out's buffers, and reports whether any
// word missed. It reads only r and the dictionary, so records look up
// concurrently while nothing writes the dictionary.
func (idx *FeatureIndex) lookup(r *data.Record, out []fieldWords) (missed bool) {
	for i, f := range idx.rc.fields {
		w := &out[i]
		w.val = r.Get(f.Attr)
		w.words = tokenize.AppendWords(w.words[:0], w.val.String())
		w.ids = w.ids[:0]
		for _, word := range w.words {
			id, ok := idx.dict.ID(word)
			if !ok {
				id, missed = noID, true
			}
			w.ids = append(w.ids, id)
		}
	}
	return missed
}

// internMissed interns the words lookup missed, in order.
func (idx *FeatureIndex) internMissed(fields []fieldWords) {
	for _, w := range fields {
		for j, id := range w.ids {
			if id == noID {
				w.ids[j] = idx.dict.Intern(w.words[j])
			}
		}
	}
}

// distinct sorts w's IDs and drops repeats, in place: WordSet semantics
// over IDs.
func (w *fieldWords) distinct() {
	slices.Sort(w.ids)
	w.ids = slices.Compact(w.ids)
}

// Add computes r's features as its entry. Not safe concurrently with any
// other use of the index.
func (idx *FeatureIndex) Add(r *data.Record) {
	fields := make([]fieldWords, len(idx.rc.fields))
	if idx.lookup(r, fields) {
		idx.internMissed(fields)
	}
	ff := make([]fieldFeature, len(fields))
	for i := range fields {
		fields[i].distinct()
		ff[i] = fieldFeature{val: fields[i].val, tokens: fields[i].ids}
	}
	idx.feats[r] = ff
}

// Remove drops r's entry, if any. Not safe concurrently with any other
// use of the index.
func (idx *FeatureIndex) Remove(r *data.Record) { delete(idx.feats, r) }

// MarkHeld sets held[id] for every dictionary ID an entry carries and
// returns how many it found unset; held spans the dictionary.
func (idx *FeatureIndex) MarkHeld(held []bool) (n int) {
	for _, ff := range idx.feats {
		for _, f := range ff {
			for _, id := range f.tokens {
				if !held[id] {
					held[id] = true
					n++
				}
			}
		}
	}
	return n
}

// Renumber moves the index into a fresh dictionary of the IDs held
// marks, which must include every ID MarkHeld marks (Dict.Renumber).
// The renumbering is monotone, so every token set stays sorted and
// every kernel returns the same bits. The entries' sets are rewritten
// in place: a caller keeping a set from Tokens across a Renumber keeps
// a copy.
func (idx *FeatureIndex) Renumber(held []bool) {
	fresh, renum := idx.dict.Renumber(held)
	for _, ff := range idx.feats {
		for _, f := range ff {
			for i, id := range f.tokens {
				f.tokens[i] = renum[id]
			}
		}
	}
	idx.dict = fresh
}

// Has reports whether the index carries features built from r itself.
func (idx *FeatureIndex) Has(r *data.Record) bool {
	_, ok := idx.feats[r]
	return ok
}

// Len returns the number of indexed records.
func (idx *FeatureIndex) Len() int { return len(idx.feats) }

// Dict returns the dictionary the index interns into.
func (idx *FeatureIndex) Dict() *tokenize.Dict { return idx.dict }

// Tokens returns the sorted distinct word IDs of field i of r — of the
// rendering of a value that is not a string — or nil when the index
// holds no entry built from r itself. The slice is the index's own: the
// caller must not modify it.
func (idx *FeatureIndex) Tokens(r *data.Record, i int) []uint32 {
	if ff, ok := idx.feats[r]; ok {
		return ff[i].tokens
	}
	return nil
}

// intersectSize counts the common elements of two sorted slices by
// linear merge.
func intersectSize[T cmp.Ordered](a, b []T) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// setKernel scores two sorted sets of la and lb distinct elements — word
// IDs, or the words themselves — with the given set metric; a set may
// leave out elements that cannot intersect (la ≥ len(a)). It is the one
// scoring routine of the set metrics, cached or not, empty-set
// conventions included.
func setKernel[T cmp.Ordered](k kernel, a []T, la int, b []T, lb int) float64 {
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	inter := intersectSize(a, b)
	switch k {
	case kernelJaccard:
		return float64(inter) / float64(la+lb-inter)
	case kernelDice:
		return 2 * float64(inter) / float64(la+lb)
	case kernelOverlap:
		m := la
		if lb < m {
			m = lb
		}
		return float64(inter) / float64(m)
	case kernelCosine:
		return float64(inter) / math.Sqrt(float64(la)*float64(lb))
	}
	return 0
}
