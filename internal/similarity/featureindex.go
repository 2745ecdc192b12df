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
// under blocking). Per compared field it stores the raw value, the
// sorted slice of interned word-token IDs, and — when the field uses
// the TF-IDF metric — the precomputed L2-normalised TF-IDF vector.
// With an index attached, RecordComparator scores token-metric fields
// through allocation-free kernels that linearly merge the sorted ID
// slices instead of rebuilding hash sets per pair.
//
// An index is built once (BuildFeatureIndex) or maintained record by
// record (Add, Remove) — BuildFeatureIndex equals Add in a loop, with
// the tokenising done in parallel. Mutation
// is single-goroutine; between mutations the index is safe for
// concurrent readers (the parallel matching workers). Kernel results
// are exactly equal to the uncached metrics, so attaching an index
// never changes match decisions for the built-in token metrics.
//
// Each entry holds the record it was built from, and the comparator
// reads an entry only for that very record: a stale entry (an ID whose
// record has since been replaced) or a foreign record carrying an
// indexed ID is scored as if no index were attached.
//
// Interned IDs are never reused, so a long-lived index accumulates the
// IDs of tokens no live record carries. The index counts the IDs its
// live entries hold (Σ); once the interner holds more than 2·Σ IDs,
// dead ones outnumber live ones and Add renumbers the live IDs into a
// fresh interner — O(live), amortised over the Σ or more IDs interned
// since the last renumbering.
type FeatureIndex struct {
	fields   []FieldWeight
	kernels  []kernel
	interner *tokenize.Interner
	corpus   *tokenize.Corpus
	feats    map[string]indexedRecord
	live     int // Σ: token and TF-IDF IDs held by the entries, with repeats
}

// indexedRecord is one entry: the record and its per-field features.
type indexedRecord struct {
	rec *data.Record
	ff  []fieldFeature
}

// fieldFeature caches one record's comparison features for one field.
type fieldFeature struct {
	val    data.Value   // copy of the record's value (null when absent)
	tokens []uint32     // sorted distinct word-token IDs (string values)
	tfidf  []WeightedID // L2-normalised TF-IDF vector, sorted by ID
}

// WeightedID is one component of an interned TF-IDF vector.
type WeightedID struct {
	ID uint32
	W  float64
}

// kernel identifies the allocation-free scoring routine for a field.
type kernel uint8

const (
	kernelNone kernel = iota // unknown metric: fall back to Values
	kernelJaccard
	kernelDice
	kernelOverlap
	kernelCosine
	kernelTFIDF
)

// kernelOf resolves a field metric to its cached kernel by comparing
// function code pointers against the built-in token metrics. Closures
// returned by TFIDF share one code pointer regardless of corpus, which
// is exactly the granularity needed: the kernel recomputes from the
// index's own vectors.
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
	case tfidfPtr:
		return kernelTFIDF
	}
	return kernelNone
}

var (
	jaccardPtr = reflect.ValueOf(Metric(Jaccard)).Pointer()
	dicePtr    = reflect.ValueOf(Metric(Dice)).Pointer()
	overlapPtr = reflect.ValueOf(Metric(Overlap)).Pointer()
	cosinePtr  = reflect.ValueOf(Metric(CosineSet)).Pointer()
	tfidfPtr   = reflect.ValueOf(TFIDF(nil)).Pointer()
)

// buildBlock is how many records BuildFeatureIndex tokenises at once.
const buildBlock = 1 << 12

// BuildFeatureIndex tokenizes every record's compared attributes once
// and returns the resulting index; with no records it is an empty
// index to maintain with Add and Remove. When the comparator uses the
// TFIDF metric, the vectors are weighted by corpus; a nil corpus is
// built from the given records' field values (one document per
// non-null string value). Pass a corpus to take document-frequency
// statistics from a wider collection. The corpus is frozen (see
// tokenize.Corpus.Freeze) so the cached vectors can be read
// concurrently. An index with no corpus scores TFIDF fields through
// Values.
//
// Records are tokenised on up to workers goroutines (0 = NumCPU) in
// blocks of buildBlock, and the calling goroutine interns each block in
// record order; so every token ID, set, vector and kernel result equals
// that of Add called on the records in order.
func BuildFeatureIndex(records []*data.Record, rc *RecordComparator, corpus *tokenize.Corpus, workers int) *FeatureIndex {
	idx := &FeatureIndex{
		fields:   rc.fields,
		kernels:  make([]kernel, len(rc.fields)),
		interner: tokenize.NewInterner(),
		feats:    make(map[string]indexedRecord, len(records)),
	}
	needTFIDF := false
	for i, f := range rc.fields {
		idx.kernels[i] = kernelOf(f.Metric)
		if idx.kernels[i] == kernelTFIDF {
			needTFIDF = true
		}
	}
	if needTFIDF && corpus == nil && len(records) > 0 {
		corpus = tokenize.NewCorpus()
		for _, r := range records {
			if r == nil {
				continue
			}
			for _, f := range rc.fields {
				if v := r.Get(f.Attr); v.Kind == data.KindString {
					corpus.Add(v.Str)
				}
			}
		}
	}
	if corpus != nil {
		corpus.Freeze()
		idx.corpus = corpus
	}
	// Each block tokenises on the workers, then this goroutine interns it
	// in record order; one block's tokens are the build's only transient
	// state.
	nf := len(idx.fields)
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
// the value, the words of a string value and, for a TF-IDF field, its
// term-sorted vector.
type fieldTokens struct {
	val   data.Value
	words []string
	vec   []tokenize.Weight
}

// tokenise fills out with r's per-field tokens. It reads only r and
// the frozen corpus, so records tokenise concurrently.
func (idx *FeatureIndex) tokenise(r *data.Record, out []fieldTokens) {
	for i, f := range idx.fields {
		v := r.Get(f.Attr)
		out[i] = fieldTokens{val: v}
		if v.Kind == data.KindString {
			out[i].words = tokenize.Words(v.Str)
			if idx.kernels[i] == kernelTFIDF && idx.corpus != nil {
				out[i].vec = idx.corpus.Vector(v.Str)
			}
		}
	}
}

// Add computes r's features, replacing any entry for r.ID. Not safe
// concurrently with any other use of the index.
func (idx *FeatureIndex) Add(r *data.Record) {
	var buf [2]fieldTokens // most comparators compare one or two fields
	toks := buf[:0]
	if len(idx.fields) <= len(buf) {
		toks = buf[:len(idx.fields)]
	} else {
		toks = make([]fieldTokens, len(idx.fields))
	}
	idx.tokenise(r, toks)
	idx.add(r, toks)
}

// add interns r's tokenised fields as its entry, replacing any entry
// for r.ID.
func (idx *FeatureIndex) add(r *data.Record, toks []fieldTokens) {
	idx.Remove(r.ID)
	ff := make([]fieldFeature, len(idx.fields))
	for i, t := range toks {
		ff[i].val = t.val
		if t.val.Kind != data.KindString {
			continue
		}
		ff[i].tokens = idx.internWords(t.words)
		ff[i].tfidf = idx.internVector(t.vec)
		idx.live += len(ff[i].tokens) + len(ff[i].tfidf)
	}
	idx.feats[r.ID] = indexedRecord{rec: r, ff: ff}
	if idx.interner.Len() > 2*idx.live {
		idx.reintern()
	}
}

// Remove drops the entry for id, if any. Not safe concurrently with any
// other use of the index.
func (idx *FeatureIndex) Remove(id string) {
	e, ok := idx.feats[id]
	if !ok {
		return
	}
	for _, f := range e.ff {
		idx.live -= len(f.tokens) + len(f.tfidf)
	}
	delete(idx.feats, id)
}

// reintern renumbers the IDs the live entries hold into a fresh
// interner, in ascending order of their old IDs. The renumbering is
// monotone, so every token set and vector stays sorted and every
// kernel — the TF-IDF dot product's summation order included — returns
// the same bits.
func (idx *FeatureIndex) reintern() {
	old := idx.interner
	held := make([]bool, old.Len())
	for _, e := range idx.feats {
		for _, f := range e.ff {
			for _, id := range f.tokens {
				held[id] = true
			}
			for _, w := range f.tfidf {
				held[w.ID] = true
			}
		}
	}
	fresh := tokenize.NewInterner()
	renum := make([]uint32, len(held))
	for id, ok := range held {
		if ok {
			renum[id] = fresh.Intern(old.Token(uint32(id)))
		}
	}
	for _, e := range idx.feats {
		for _, f := range e.ff {
			for i, id := range f.tokens {
				f.tokens[i] = renum[id]
			}
			for i, w := range f.tfidf {
				f.tfidf[i].ID = renum[w.ID]
			}
		}
	}
	idx.interner = fresh
}

// internWords interns the distinct words and returns their IDs sorted
// ascending.
func (idx *FeatureIndex) internWords(words []string) []uint32 {
	if len(words) == 0 {
		return nil
	}
	ids := make([]uint32, 0, len(words))
	for _, w := range words {
		ids = append(ids, idx.interner.Intern(w))
	}
	// WordSet semantics over sorted IDs.
	slices.Sort(ids)
	return slices.Compact(ids)
}

// internVector converts a term-sorted TF-IDF vector to interned IDs
// sorted by ID.
func (idx *FeatureIndex) internVector(vec []tokenize.Weight) []WeightedID {
	if len(vec) == 0 {
		return nil
	}
	out := make([]WeightedID, len(vec))
	for i, w := range vec {
		out[i] = WeightedID{ID: idx.interner.Intern(w.Term), W: w.W}
	}
	slices.SortFunc(out, func(a, b WeightedID) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// Has reports whether the index carries features built from r itself.
func (idx *FeatureIndex) Has(r *data.Record) bool {
	return r != nil && idx.feats[r.ID].rec == r
}

// Len returns the number of indexed records.
func (idx *FeatureIndex) Len() int { return len(idx.feats) }

// Interned returns the number of token IDs the interner holds, live and
// dead.
func (idx *FeatureIndex) Interned() int { return idx.interner.Len() }

// Corpus returns the TF-IDF corpus backing the index (nil when no
// field uses the TFIDF metric and none was supplied).
func (idx *FeatureIndex) Corpus() *tokenize.Corpus { return idx.corpus }

// Tokens returns the sorted interned token IDs cached for one record's
// attribute (nil when the record or a string value is absent). Exposed
// for blocking and diagnostics; the slice must not be mutated, and its
// IDs hold until the next Add.
func (idx *FeatureIndex) Tokens(id, attr string) []uint32 {
	e, ok := idx.feats[id]
	if !ok {
		return nil
	}
	for i, f := range idx.fields {
		if f.Attr == attr {
			return e.ff[i].tokens
		}
	}
	return nil
}

// intersectSize counts common IDs of two sorted slices by linear merge.
func intersectSize(a, b []uint32) int {
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

// setKernel scores two sorted token-ID sets of la and lb distinct
// tokens with the given set metric; a set may leave out tokens that
// cannot intersect (la ≥ len(a)). Results are exactly equal to the
// map-based metrics over the same token sets, including the empty-set
// conventions.
func setKernel(k kernel, a []uint32, la int, b []uint32, lb int) float64 {
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

// dotKernel computes the clamped inner product of two ID-sorted TF-IDF
// vectors; two empty vectors are perfectly similar, mirroring
// TFIDFCosine.
func dotKernel(a, b []WeightedID) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	var dot float64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].ID < b[j].ID:
			i++
		case a[i].ID > b[j].ID:
			j++
		default:
			dot += a[i].W * b[j].W
			i++
			j++
		}
	}
	return clamp01(dot)
}
