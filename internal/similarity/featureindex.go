package similarity

import (
	"math"
	"reflect"
	"sort"

	"repro/internal/data"
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
// A FeatureIndex has a build-then-read life-cycle: BuildFeatureIndex
// constructs it in one goroutine; afterwards it is safe for concurrent
// readers (the parallel matching workers). Kernel results are exactly
// equal to the uncached metrics, so attaching an index never changes
// match decisions for the built-in token metrics.
type FeatureIndex struct {
	fields   []FieldWeight
	kernels  []kernel
	interner *tokenize.Interner
	corpus   *tokenize.Corpus
	feats    map[string][]fieldFeature
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

// BuildFeatureIndex tokenizes every record's compared attributes once
// and returns the resulting index. When the comparator uses the TFIDF
// metric, the vectors are weighted by corpus; a nil corpus is built
// from the indexed field values (one document per non-null string
// value). Pass a corpus to take document-frequency statistics from a
// wider collection. The corpus is frozen (see tokenize.Corpus.Freeze)
// so the cached vectors can be read concurrently.
func BuildFeatureIndex(records []*data.Record, rc *RecordComparator, corpus *tokenize.Corpus) *FeatureIndex {
	idx := &FeatureIndex{
		fields:   rc.fields,
		kernels:  make([]kernel, len(rc.fields)),
		interner: tokenize.NewInterner(),
		feats:    make(map[string][]fieldFeature, len(records)),
	}
	needTFIDF := false
	for i, f := range rc.fields {
		idx.kernels[i] = kernelOf(f.Metric)
		if idx.kernels[i] == kernelTFIDF {
			needTFIDF = true
		}
	}
	if needTFIDF && corpus == nil {
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

	for _, r := range records {
		if r == nil {
			continue
		}
		if _, dup := idx.feats[r.ID]; dup {
			continue
		}
		ff := make([]fieldFeature, len(rc.fields))
		for i, f := range rc.fields {
			v := r.Get(f.Attr)
			ff[i].val = v
			if v.Kind != data.KindString {
				continue
			}
			ff[i].tokens = idx.internTokens(v.Str)
			if needTFIDF && idx.kernels[i] == kernelTFIDF {
				ff[i].tfidf = idx.internVector(corpus.Vector(v.Str))
			}
		}
		idx.feats[r.ID] = ff
	}
	return idx
}

// internTokens interns the distinct normalised words of s and returns
// their IDs sorted ascending.
func (idx *FeatureIndex) internTokens(s string) []uint32 {
	words := tokenize.Words(s)
	if len(words) == 0 {
		return nil
	}
	ids := make([]uint32, 0, len(words))
	for _, w := range words {
		ids = append(ids, idx.interner.Intern(w))
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	// Dedupe in place: WordSet semantics over sorted IDs.
	out := ids[:1]
	for _, id := range ids[1:] {
		if id != out[len(out)-1] {
			out = append(out, id)
		}
	}
	return out
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
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Has reports whether the index carries features for the record ID.
func (idx *FeatureIndex) Has(id string) bool {
	_, ok := idx.feats[id]
	return ok
}

// Len returns the number of indexed records.
func (idx *FeatureIndex) Len() int { return len(idx.feats) }

// Corpus returns the TF-IDF corpus backing the index (nil when no
// field uses the TFIDF metric and none was supplied).
func (idx *FeatureIndex) Corpus() *tokenize.Corpus { return idx.corpus }

// Tokens returns the sorted interned token IDs cached for one record's
// attribute (nil when the record or a string value is absent). Exposed
// for blocking and diagnostics; the slice must not be mutated.
func (idx *FeatureIndex) Tokens(id, attr string) []uint32 {
	ff, ok := idx.feats[id]
	if !ok {
		return nil
	}
	for i, f := range idx.fields {
		if f.Attr == attr {
			return ff[i].tokens
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

// setKernel scores two sorted token-ID sets with the given set metric.
// Results are exactly equal to the map-based metrics over the same
// token sets, including the empty-set conventions.
func setKernel(k kernel, a, b []uint32) float64 {
	la, lb := len(a), len(b)
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
