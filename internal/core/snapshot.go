package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/data"
	"repro/internal/similarity"
	"repro/internal/tokenize"
)

// Serving snapshot: the read-optimized, immutable view of a completed
// pipeline run. A Snapshot materialises every integrated entity ONCE
// and builds an inverted token index over titles and fused string
// values for keyword search and an exact value index plus one
// pseudo-record per entity for record resolution — after which every
// read (Entity, Search, Similar, Resolve) is lock-free and safe for
// unbounded concurrency. This is the structure a long-lived service
// (cmd/bdiserve) swaps atomically when a background rebuild completes.

// ErrNoSuchEntity is returned by Snapshot lookups for IDs the snapshot
// does not contain (including non-canonical spellings like "e01").
var ErrNoSuchEntity = errors.New("core: no such entity")

// DefaultSearchLimit is the hit cap applied when Search or Similar is
// called with limit 0.
const DefaultSearchLimit = 10

// Snapshot is an immutable serving view over a pipeline Report. All
// methods are safe for concurrent use by any number of readers; none
// take locks or mutate state after Build.
type Snapshot struct {
	entities []*Entity
	byID     map[string]int

	// Inverted keyword index over every distinct word of every entity's
	// title + fused string values; entTokens[i] holds entity i's distinct
	// token IDs (its length is the |E| in the overlap/Jaccard blend
	// Search computes).
	words     inverted
	entTokens [][]uint32

	// Resolution index: one pseudo-record per entity (title + fused
	// values) scored by a weighted per-field comparator, plus an exact
	// index over "attr\x00value-key" so identifier-style equality always
	// surfaces its entity as a candidate even when text overlap is zero.
	// The comparator carries no feature index: the query record of a
	// Resolve is never in one, so Compare could not use it.
	pseudo []*data.Record
	cmp    *similarity.RecordComparator
	values inverted

	// scratch pools the per-query *queryScratch. It starts empty: a
	// snapshot that is never queried never allocates one.
	scratch sync.Pool
}

// queryScratch is one query's working memory, reused across queries on
// the same snapshot. counts is dense over the entities and all zero
// between queries; touched lists the entities whose count a query made
// non-zero, so handing the scratch back costs O(touched), not O(|E|).
type queryScratch struct {
	counts  []int32
	touched []int32
	toks    []uint32
	top     []scored
}

// scored is one ranked candidate: an entity index and its score.
type scored struct {
	score float64
	e     int32
}

// getScratch takes a clean scratch from the pool, allocating one sized
// to the snapshot when the pool is empty.
func (s *Snapshot) getScratch() *queryScratch {
	if sc, ok := s.scratch.Get().(*queryScratch); ok {
		return sc
	}
	return &queryScratch{counts: make([]int32, len(s.entities))}
}

// mark notes entity e as touched and counts one more hit for it.
func (sc *queryScratch) mark(e int32) {
	if sc.counts[e] == 0 {
		sc.touched = append(sc.touched, e)
	}
	sc.counts[e]++
}

// inverted maps a string to the entities that carry it, ascending.
type inverted struct {
	ids      map[string]uint32
	postings [][]int32
}

func (ix *inverted) lookup(s string) []int32 {
	if id, ok := ix.ids[s]; ok {
		return ix.postings[id]
	}
	return nil
}

// invertedBuilder collects an inverted index entity by entity: strings
// are interned in first-encounter order and every occurrence noted, so
// finish can cut all posting lists out of one array.
type invertedBuilder struct {
	ids   map[string]uint32
	count []int32  // occurrences per interned string
	refs  []uint32 // the interned string of every occurrence, in add order
	ends  []int32  // refs[ends[i-1]:ends[i]] are entity i's occurrences
}

// add notes one occurrence for the entity being added. An entity must
// not add the same string twice.
func (b *invertedBuilder) add(s string) {
	id, ok := b.ids[s]
	if !ok {
		id = uint32(len(b.count))
		b.ids[s] = id
		b.count = append(b.count, 0)
	}
	b.count[id]++
	b.refs = append(b.refs, id)
}

// endEntity closes the entity whose occurrences were just added.
func (b *invertedBuilder) endEntity() { b.ends = append(b.ends, int32(len(b.refs))) }

// entity returns entity i's interned strings in add order.
func (b *invertedBuilder) entity(i int) []uint32 {
	from := int32(0)
	if i > 0 {
		from = b.ends[i-1]
	}
	return b.refs[from:b.ends[i]:b.ends[i]]
}

func (b *invertedBuilder) finish() inverted {
	postings := make([][]int32, len(b.count))
	backing := make([]int32, len(b.refs))
	for id, n := range b.count {
		postings[id], backing = backing[:0:n], backing[n:]
	}
	for i := range b.ends {
		for _, id := range b.entity(i) {
			postings[id] = append(postings[id], int32(i))
		}
	}
	return inverted{ids: b.ids, postings: postings}
}

// entityDoc is the part of an entity's index entry that depends on
// nothing but its title and fused values — not on its position among the
// entities nor on any other entity — so a Stream can keep it for as long
// as those do not change. It is immutable once built: snapshots share it.
type entityDoc struct {
	values map[string]data.Value // the fused values (Entity.Values)
	attrs  []string              // their attributes, sorted
	// words holds the distinct normalised words of the title and of every
	// fused string value (in attribute order), in first-encounter order.
	words []string
	keys  []string // "attr\x00value-key" of every fused value
	// pseudo stands in for the entity in the resolve comparator: the
	// title plus every fused attribute but "title".
	pseudo *data.Record
}

// newEntityDoc builds the doc of an entity with the given title and
// fused values. seen is scratch, empty on entry and on return.
func newEntityDoc(title string, values map[string]data.Value, seen map[string]struct{}) *entityDoc {
	doc := &entityDoc{
		values: values,
		attrs:  sortedKeys(values),
		keys:   make([]string, 0, len(values)),
		pseudo: data.NewRecord("", "__snapshot__"),
	}
	addWords := func(text string) {
		for _, w := range tokenize.Words(text) {
			if _, dup := seen[w]; !dup {
				seen[w] = struct{}{}
				doc.words = append(doc.words, w)
			}
		}
	}
	addWords(title)
	if title != "" {
		doc.pseudo.Set("title", data.String(title))
	}
	for _, attr := range doc.attrs {
		v := values[attr]
		if v.Kind == data.KindString {
			addWords(v.Str)
		}
		if attr != "title" {
			doc.pseudo.Set(attr, v)
		}
		doc.keys = append(doc.keys, attr+"\x00"+v.Key())
	}
	clear(seen)
	return doc
}

// indexer assembles a Snapshot from entities and their docs, added in
// entity order — the one way a snapshot is built, whether the docs were
// made on the spot (BuildSnapshot) or kept from an earlier publish
// (Stream).
type indexer struct {
	snap          *Snapshot
	words, values invertedBuilder
	attrs         map[string]struct{}
}

func newIndexer(entities int) *indexer {
	return &indexer{
		snap: &Snapshot{
			entities: make([]*Entity, 0, entities),
			byID:     make(map[string]int, entities),
			pseudo:   make([]*data.Record, 0, entities),
		},
		words:  invertedBuilder{ids: map[string]uint32{}},
		values: invertedBuilder{ids: map[string]uint32{}},
		attrs:  map[string]struct{}{"title": {}},
	}
}

func (ix *indexer) add(e *Entity, doc *entityDoc) {
	s := ix.snap
	s.byID[e.ID] = len(s.entities)
	s.entities = append(s.entities, e)
	s.pseudo = append(s.pseudo, doc.pseudo)
	for _, w := range doc.words {
		ix.words.add(w)
	}
	ix.words.endEntity()
	for _, k := range doc.keys {
		ix.values.add(k)
	}
	ix.values.endEntity()
	for _, a := range doc.attrs {
		ix.attrs[a] = struct{}{}
	}
}

// snapshot finishes the build. The resolution comparator is the
// pipeline rule's, over the title and every fused attribute.
func (ix *indexer) snapshot() *Snapshot {
	s := ix.snap
	s.words, s.values = ix.words.finish(), ix.values.finish()
	s.entTokens = make([][]uint32, len(s.entities))
	for i := range s.entTokens {
		s.entTokens[i] = ix.words.entity(i)
	}
	s.cmp = ruleComparator(sortedKeys(ix.attrs))
	return s
}

// BuildSnapshot materialises the serving snapshot for a completed
// report: every entity with its fused values, the inverted keyword
// index and the resolution index are built here, once, so the read
// methods never materialise anything per query.
func BuildSnapshot(r *Report) (*Snapshot, error) {
	ents, err := materializeEntities(r)
	if err != nil {
		return nil, err
	}
	ix := newIndexer(len(ents))
	seen := map[string]struct{}{}
	for _, e := range ents {
		ix.add(e, newEntityDoc(e.Title, e.Values, seen))
	}
	return ix.snapshot(), nil
}

// materializeEntities builds the entity list from the raw report — the
// one-time cost BuildSnapshot pays so the read path never does.
func materializeEntities(r *Report) ([]*Entity, error) {
	if r == nil || r.Normalized == nil || r.Clusters == nil || r.Fusion == nil {
		return nil, fmt.Errorf("core: report is incomplete (run the pipeline first)")
	}
	norm := r.Clusters.Normalize()
	out := make([]*Entity, 0, len(norm))
	for ci, cl := range norm {
		e := &Entity{
			ID:         fmt.Sprintf("e%d", ci),
			Records:    append([]string(nil), cl...),
			Values:     map[string]data.Value{},
			Confidence: map[string]float64{},
		}
		srcSet := map[string]bool{}
		for _, rid := range cl {
			rec := r.Normalized.Record(rid)
			if rec == nil {
				continue
			}
			srcSet[rec.SourceID] = true
			if t := rec.Get("title"); !t.IsNull() && len(t.Str) > len(e.Title) {
				e.Title = t.Str
			}
		}
		for s := range srcSet {
			e.Sources = append(e.Sources, s)
		}
		sort.Strings(e.Sources)
		out = append(out, e)
	}
	// Attach fused values.
	for it, v := range r.Fusion.Values {
		idx := entityIndex(it.Entity)
		if idx < 0 || idx >= len(out) {
			continue
		}
		out[idx].Values[it.Attr] = v
		out[idx].Confidence[it.Attr] = r.Fusion.Confidence[it]
	}
	return out, nil
}

// Len returns the number of integrated entities.
func (s *Snapshot) Len() int { return len(s.entities) }

// Entities returns every integrated entity in entity index order (e0,
// e1, …, e10, …: numeric, not the byte-wise ID order ranked hits tie on).
// The slice and the entities are shared, immutable views — callers must
// not modify them.
func (s *Snapshot) Entities() []*Entity { return s.entities }

// Entity looks one entity up by its canonical ID ("e<i>"). The second
// return is false for unknown or non-canonical IDs.
func (s *Snapshot) Entity(id string) (*Entity, bool) {
	i, ok := s.byID[id]
	if !ok {
		return nil, false
	}
	return s.entities[i], true
}

// Search ranks integrated entities against a keyword query by the
// blended overlap/Jaccard similarity between the query's words and
// each entity's title plus fused string values, returning up to limit
// hits with score > 0, sorted by score descending and then byte-wise
// Entity.ID ascending ("e10" before "e2"). limit 0 means
// DefaultSearchLimit; negative limits are a validation error. The whole
// operation is an index probe: no entity is materialised or re-tokenised
// per call, and its allocations do not grow with the entities touched.
func (s *Snapshot) Search(query string, limit int) ([]Hit, error) {
	limit, err := searchLimit(limit)
	if err != nil {
		return nil, err
	}
	qNorm := tokenize.Normalize(query)
	if qNorm == "" {
		return nil, fmt.Errorf("core: empty query")
	}
	sc := s.getScratch()
	nq := s.queryTokens(sc, tokenize.Words(qNorm))
	hits := s.hits(s.probe(sc, sc.toks, nq, -1, limit))
	s.scratch.Put(sc)
	return hits, nil
}

// Similar returns the k entities most similar to the given entity,
// scored with the same blended text metric Search uses over the
// precomputed token index. k 0 means DefaultSearchLimit; negative k is
// a validation error; unknown IDs return ErrNoSuchEntity.
func (s *Snapshot) Similar(id string, k int) ([]Hit, error) {
	k, err := searchLimit(k)
	if err != nil {
		return nil, err
	}
	self, ok := s.byID[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchEntity, id)
	}
	toks := s.entTokens[self]
	sc := s.getScratch()
	hits := s.hits(s.probe(sc, toks, len(toks), self, k))
	s.scratch.Put(sc)
	return hits, nil
}

// queryTokens sorts words in place, sets sc.toks to the index IDs of its
// distinct words the index knows and returns how many distinct words it
// has, known or not: the |Q| of the score blend.
func (s *Snapshot) queryTokens(sc *queryScratch, words []string) int {
	slices.Sort(words)
	words = slices.Compact(words)
	sc.toks = sc.toks[:0]
	for _, w := range words {
		if id, ok := s.words.ids[w]; ok {
			sc.toks = append(sc.toks, id)
		}
	}
	return len(words)
}

// probe ranks the entities sharing a token with the query: toks are the
// index IDs of its distinct known words and nq counts its distinct words,
// known or not. Postings are counted into the dense sc.counts and every
// touched entity is scored exactly as the legacy per-query scan did:
// score = 0.7·|Q∩E|/min(|Q|,|E|) + 0.3·|Q∩E|/|Q∪E| with |Q| = nq.
// exclude ≥ 0 drops that entity (Similar's self). Only the best limit
// survive a bounded heap, and only they are sorted: by score descending,
// then byte-wise Entity.ID ascending. The result lives in sc.top; the
// counts are zero again on return. probe allocates nothing once the
// scratch has grown to the query's size.
func (s *Snapshot) probe(sc *queryScratch, toks []uint32, nq, exclude, limit int) []scored {
	sc.top = sc.top[:0]
	if nq == 0 {
		return sc.top
	}
	for _, tok := range toks {
		for _, e := range s.words.postings[tok] {
			sc.mark(e)
		}
	}
	for _, e := range sc.touched {
		inter := int(sc.counts[e])
		sc.counts[e] = 0
		if int(e) == exclude {
			continue
		}
		ne := len(s.entTokens[e])
		m := nq
		if ne < m {
			m = ne
		}
		overlap := float64(inter) / float64(m)
		jaccard := float64(inter) / float64(nq+ne-inter)
		if score := 0.7*overlap + 0.3*jaccard; score > 0 {
			s.keep(sc, scored{score: score, e: e}, limit)
		}
	}
	sc.touched = sc.touched[:0]
	return s.ranked(sc.top)
}

// worse reports whether a ranks below b: a lower score, or the same
// score and a byte-wise greater Entity.ID.
func (s *Snapshot) worse(a, b scored) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	return s.entities[a.e].ID > s.entities[b.e].ID
}

// keep offers c to sc.top, a heap of the best limit candidates so far
// whose root is the worst of them.
func (s *Snapshot) keep(sc *queryScratch, c scored, limit int) {
	h := sc.top
	if len(h) == limit {
		if !s.worse(h[0], c) {
			return
		}
		h[0] = c
		s.siftDown(h, 0)
		return
	}
	h = append(h, c)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !s.worse(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	sc.top = h
}

// siftDown restores the heap property below h[i].
func (s *Snapshot) siftDown(h []scored, i int) {
	for {
		w := i
		if l := 2*i + 1; l < len(h) && s.worse(h[l], h[w]) {
			w = l
		}
		if r := 2*i + 2; r < len(h) && s.worse(h[r], h[w]) {
			w = r
		}
		if w == i {
			return
		}
		h[i], h[w] = h[w], h[i]
		i = w
	}
}

// ranked heap-sorts h in place, best first: each step moves the root —
// the worst left — behind the shrinking heap.
func (s *Snapshot) ranked(h []scored) []scored {
	for n := len(h) - 1; n > 0; n-- {
		h[0], h[n] = h[n], h[0]
		s.siftDown(h[:n], 0)
	}
	return h
}

// hits materialises ranked candidates as the API's hits.
func (s *Snapshot) hits(top []scored) []Hit {
	out := make([]Hit, len(top))
	for i, c := range top {
		out[i] = Hit{Entity: s.entities[c.e], Score: c.score}
	}
	return out
}

// searchLimit resolves the shared limit contract: 0 means the default,
// negatives are rejected loudly instead of being silently rewritten.
func searchLimit(limit int) (int, error) {
	switch {
	case limit < 0:
		return 0, fmt.Errorf("core: negative limit %d (0 means the default %d)", limit, DefaultSearchLimit)
	case limit == 0:
		return DefaultSearchLimit, nil
	}
	return limit, nil
}

// Resolve scores a new record against the integrated entities — the
// serving form of record-resolution ("which entity does this record
// describe?"). Candidates come from two probes over the prebuilt
// indexes: the keyword index over the record's string values, and
// exact value-key equality on any attribute (so identifier matches
// surface even with zero text overlap). Each candidate is then scored
// by the snapshot's weighted per-field comparator, and the top k are
// returned sorted by score descending, byte-wise entity ID ascending.
// k 0 means DefaultSearchLimit; negative k is a validation error.
func (s *Snapshot) Resolve(rec *data.Record, k int) ([]Hit, error) {
	k, err := searchLimit(k)
	if err != nil {
		return nil, err
	}
	if rec == nil || len(rec.Fields) == 0 {
		return nil, fmt.Errorf("core: empty record")
	}
	// Text probe: the words of every string value.
	attrs := rec.Attrs()
	var words []string
	for _, attr := range attrs {
		if v := rec.Get(attr); v.Kind == data.KindString {
			words = append(words, tokenize.Words(v.Str)...)
		}
	}
	sc := s.getScratch()
	nq := s.queryTokens(sc, words)
	// A shortlist bounded well above k keeps the comparator pass cheap
	// while leaving room for the exact-value candidates to rerank. The
	// candidates are deduped by marking them in the scratch.
	for _, c := range s.probe(sc, sc.toks, nq, -1, max(4*k, 32)) {
		sc.mark(c.e)
	}
	for _, attr := range attrs {
		for _, e := range s.values.lookup(attr + "\x00" + rec.Get(attr).Key()) {
			sc.mark(e)
		}
	}
	sc.top = sc.top[:0]
	for _, e := range sc.touched {
		sc.counts[e] = 0
		if score := s.cmp.Compare(rec, s.pseudo[e]); score > 0 {
			s.keep(sc, scored{score: score, e: e}, k)
		}
	}
	sc.touched = sc.touched[:0]
	hits := s.hits(s.ranked(sc.top))
	s.scratch.Put(sc)
	return hits, nil
}

// sortedKeys returns m's keys in ascending order: the one way core
// walks a map when the order can reach an output.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
