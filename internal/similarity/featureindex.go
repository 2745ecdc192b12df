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
// An index belongs to the comparator that built it, and each entry
// holds the record it was built from: the comparator reads an entry
// only for that very record, and only from its own index. A stale
// entry (an ID whose record has since been replaced), a foreign record
// carrying an indexed ID, or an index another comparator built is
// scored as if no index were attached.
//
// Dictionary IDs are never reused, so a long-lived index accumulates
// the IDs of words no live record carries. The index does not bound
// that itself: whoever shares its dictionary knows every holder of its
// IDs, and calls Renumber once dead IDs outnumber held ones.
type FeatureIndex struct {
	rc      *RecordComparator // the comparator that built the index
	kernels []kernel
	dict    *tokenize.Dict
	feats   map[string]indexedRecord
}

// indexedRecord is one entry: the record and its per-field features.
type indexedRecord struct {
	rec *data.Record
	ff  []fieldFeature
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
//
// Records are tokenised on up to workers goroutines (0 = NumCPU) in
// blocks of buildBlock, and the calling goroutine interns each block in
// record order; so every token ID, set and kernel result equals that of
// Add called on the records in order.
func BuildFeatureIndex(records []*data.Record, rc *RecordComparator, workers int) *FeatureIndex {
	idx := &FeatureIndex{
		rc:      rc,
		kernels: make([]kernel, len(rc.fields)),
		dict:    tokenize.NewDict(),
		feats:   make(map[string]indexedRecord, len(records)),
	}
	for i, f := range rc.fields {
		idx.kernels[i] = kernelOf(f.Metric)
	}
	// Each block tokenises on the workers, then this goroutine interns it
	// in record order; one block's tokens are the build's only transient
	// state.
	nf := len(rc.fields)
	toks := make([]fieldTokens, min(len(records), buildBlock)*nf)
	cfg := parallel.Config{Workers: workers}
	for lo := 0; lo < len(records); lo += buildBlock {
		blk := records[lo:min(lo+buildBlock, len(records))]
		if err := parallel.ForEach(cfg, len(blk), func(i int) {
			if blk[i] != nil {
				idx.tokenise(blk[i], toks[i*nf:(i+1)*nf])
			}
		}); err != nil {
			panic(err)
		}
		for i, r := range blk {
			if r != nil {
				idx.add(r, toks[i*nf:(i+1)*nf])
			}
		}
	}
	return idx
}

// fieldTokens is one field of one record tokenised but not interned:
// the value and the words of its rendering.
type fieldTokens struct {
	val   data.Value
	words []string
}

// tokenise fills out with r's per-field tokens. It reads only r, so
// records tokenise concurrently.
func (idx *FeatureIndex) tokenise(r *data.Record, out []fieldTokens) {
	for i, f := range idx.rc.fields {
		v := r.Get(f.Attr)
		out[i] = fieldTokens{val: v, words: tokenize.Words(v.String())}
	}
}

// Add computes r's features, replacing any entry for r.ID. Not safe
// concurrently with any other use of the index.
func (idx *FeatureIndex) Add(r *data.Record) {
	var buf [2]fieldTokens // most comparators compare one or two fields
	toks := buf[:0]
	if nf := len(idx.rc.fields); nf <= len(buf) {
		toks = buf[:nf]
	} else {
		toks = make([]fieldTokens, nf)
	}
	idx.tokenise(r, toks)
	idx.add(r, toks)
}

// add interns r's tokenised fields as its entry, replacing any entry
// for r.ID.
func (idx *FeatureIndex) add(r *data.Record, toks []fieldTokens) {
	ff := make([]fieldFeature, len(toks))
	for i, t := range toks {
		ff[i] = fieldFeature{val: t.val, tokens: idx.internWords(t.words)}
	}
	idx.feats[r.ID] = indexedRecord{rec: r, ff: ff}
}

// Remove drops the entry for id, if any. Not safe concurrently with any
// other use of the index.
func (idx *FeatureIndex) Remove(id string) { delete(idx.feats, id) }

// MarkHeld sets held[id] for every dictionary ID an entry carries and
// returns how many it found unset; held spans the dictionary.
func (idx *FeatureIndex) MarkHeld(held []bool) (n int) {
	for _, e := range idx.feats {
		for _, f := range e.ff {
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
	for _, e := range idx.feats {
		for _, f := range e.ff {
			for i, id := range f.tokens {
				f.tokens[i] = renum[id]
			}
		}
	}
	idx.dict = fresh
}

// internWords interns the words and returns their distinct IDs sorted:
// WordSet semantics over IDs.
func (idx *FeatureIndex) internWords(words []string) []uint32 {
	ids := idx.dict.InternAll(words)
	slices.Sort(ids)
	return slices.Compact(ids)
}

// Has reports whether the index carries features built from r itself.
func (idx *FeatureIndex) Has(r *data.Record) bool {
	return r != nil && idx.feats[r.ID].rec == r
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
	if e := idx.feats[r.ID]; e.rec == r {
		return e.ff[i].tokens
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
