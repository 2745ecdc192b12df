package tokenize

import (
	"math"
	"sort"
)

// Corpus accumulates document-frequency statistics over a collection of
// texts and computes TF-IDF weight vectors. It backs cosine-TF-IDF and
// soft-TF-IDF similarity as well as IDF-weighted meta-blocking.
//
// A Corpus has a build-then-read life-cycle: Add documents from one
// goroutine, call Freeze, then share it freely — every read method
// (NumDocs, DocFreq, IDF, Vector) is safe for concurrent use once the
// corpus is frozen, because nothing mutates after the freeze point.
// Add panics after Freeze so an accidental late write fails loudly
// instead of racing readers.
type Corpus struct {
	docFreq map[string]int
	numDocs int
	frozen  bool
}

// NewCorpus returns an empty corpus.
func NewCorpus() *Corpus {
	return &Corpus{docFreq: map[string]int{}}
}

// Add registers one document's text. Each distinct word counts once
// toward document frequency. Add panics on a frozen corpus.
func (c *Corpus) Add(text string) {
	if c.frozen {
		panic("tokenize: Corpus.Add after Freeze")
	}
	c.numDocs++
	for _, w := range WordSet(text) {
		c.docFreq[w]++
	}
}

// Freeze marks the corpus complete. After Freeze, Add panics and all
// read methods are safe for concurrent use from any number of
// goroutines. Freezing an already-frozen corpus is a no-op.
func (c *Corpus) Freeze() { c.frozen = true }

// Frozen reports whether the corpus has been frozen.
func (c *Corpus) Frozen() bool { return c.frozen }

// NumDocs returns the number of documents added.
func (c *Corpus) NumDocs() int { return c.numDocs }

// DocFreq returns the document frequency of a (normalised) word.
func (c *Corpus) DocFreq(word string) int { return c.docFreq[word] }

// IDF returns the smoothed inverse document frequency
// log(1 + N/(1+df)). Unseen words get the maximum IDF.
func (c *Corpus) IDF(word string) float64 {
	return math.Log(1 + float64(c.numDocs)/float64(1+c.docFreq[word]))
}

// Weight is one component of a TF-IDF vector.
type Weight struct {
	Term string
	W    float64
}

// Vector computes the L2-normalised TF-IDF vector of text against the
// corpus, sorted by term. The norm is summed in term order, so equal
// texts get bit-identical vectors. Empty text yields a nil vector.
func (c *Corpus) Vector(text string) []Weight {
	tf := map[string]int{}
	for _, w := range Words(text) {
		tf[w]++
	}
	if len(tf) == 0 {
		return nil
	}
	vec := make([]Weight, 0, len(tf))
	for term := range tf {
		vec = append(vec, Weight{Term: term})
	}
	sort.Slice(vec, func(i, j int) bool { return vec[i].Term < vec[j].Term })
	var norm float64
	for i, v := range vec {
		w := (1 + math.Log(float64(tf[v.Term]))) * c.IDF(v.Term)
		vec[i].W = w
		norm += w * w
	}
	norm = math.Sqrt(norm)
	if norm > 0 {
		for i := range vec {
			vec[i].W /= norm
		}
	}
	return vec
}

// Dot computes the inner product of two term-sorted weight vectors.
func Dot(a, b []Weight) float64 {
	var dot float64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Term < b[j].Term:
			i++
		case a[i].Term > b[j].Term:
			j++
		default:
			dot += a[i].W * b[j].W
			i++
			j++
		}
	}
	return dot
}
