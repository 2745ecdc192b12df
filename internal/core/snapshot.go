package core

import (
	"errors"
	"fmt"
	"sort"

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

// Entities returns every integrated entity ordered by entity ID. The
// slice and the entities are shared, immutable views — callers must
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
// hits with score > 0. limit 0 means DefaultSearchLimit; negative
// limits are a validation error. The whole operation is an index
// probe: no entity is materialised or re-tokenised per call.
func (s *Snapshot) Search(query string, limit int) ([]Hit, error) {
	limit, err := searchLimit(limit)
	if err != nil {
		return nil, err
	}
	qNorm := tokenize.Normalize(query)
	if qNorm == "" {
		return nil, fmt.Errorf("core: empty query")
	}
	qset := tokenize.WordSet(qNorm)
	toks := make([]uint32, 0, len(qset))
	for w := range qset {
		if id, ok := s.words.ids[w]; ok {
			toks = append(toks, id)
		}
	}
	return s.probe(toks, len(qset), -1, limit), nil
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
	return s.probe(toks, len(toks), self, k), nil
}

// probe accumulates posting-list hits for the given token IDs and
// blends overlap and Jaccard exactly as the legacy per-query scan did:
// score = 0.7·|Q∩E|/min(|Q|,|E|) + 0.3·|Q∩E|/|Q∪E| with |Q| = nq
// distinct query words. exclude ≥ 0 drops that entity (Similar's
// self). Hits are sorted by score descending, entity ID ascending.
func (s *Snapshot) probe(toks []uint32, nq, exclude, limit int) []Hit {
	if nq == 0 {
		return nil
	}
	counts := make(map[int32]int, 64)
	for _, tok := range toks {
		for _, e := range s.words.postings[tok] {
			counts[e]++
		}
	}
	touched := make([]int32, 0, len(counts))
	for e := range counts {
		touched = append(touched, e)
	}
	sort.Slice(touched, func(i, j int) bool { return touched[i] < touched[j] })
	hits := make([]Hit, 0, len(touched))
	for _, e := range touched {
		if int(e) == exclude {
			continue
		}
		inter := counts[e]
		ne := len(s.entTokens[e])
		m := nq
		if ne < m {
			m = ne
		}
		overlap := float64(inter) / float64(m)
		jaccard := float64(inter) / float64(nq+ne-inter)
		if sc := 0.7*overlap + 0.3*jaccard; sc > 0 {
			hits = append(hits, Hit{Entity: s.entities[e], Score: sc})
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].Entity.ID < hits[j].Entity.ID
	})
	if len(hits) > limit {
		hits = hits[:limit]
	}
	return hits
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
// returned sorted by score descending, entity ID ascending. k 0 means
// DefaultSearchLimit; negative k is a validation error.
func (s *Snapshot) Resolve(rec *data.Record, k int) ([]Hit, error) {
	k, err := searchLimit(k)
	if err != nil {
		return nil, err
	}
	if rec == nil || len(rec.Fields) == 0 {
		return nil, fmt.Errorf("core: empty record")
	}
	// Text probe: distinct words across every string value.
	qset := map[string]bool{}
	cand := map[int32]bool{}
	for _, attr := range rec.Attrs() {
		v := rec.Get(attr)
		if v.Kind == data.KindString {
			for _, w := range tokenize.Words(v.Str) {
				qset[w] = true
			}
		}
		for _, e := range s.values.lookup(attr + "\x00" + v.Key()) {
			cand[e] = true
		}
	}
	toks := make([]uint32, 0, len(qset))
	for w := range qset {
		if id, ok := s.words.ids[w]; ok {
			toks = append(toks, id)
		}
	}
	// A shortlist bounded well above k keeps the comparator pass cheap
	// while leaving room for the exact-value candidates to rerank.
	shortlist := 4 * k
	if shortlist < 32 {
		shortlist = 32
	}
	for _, h := range s.probe(toks, len(qset), -1, shortlist) {
		cand[int32(s.byID[h.Entity.ID])] = true
	}
	ordered := make([]int32, 0, len(cand))
	for e := range cand {
		ordered = append(ordered, e)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i] < ordered[j] })
	hits := make([]Hit, 0, len(ordered))
	for _, e := range ordered {
		if sc := s.cmp.Compare(rec, s.pseudo[e]); sc > 0 {
			hits = append(hits, Hit{Entity: s.entities[e], Score: sc})
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].Entity.ID < hits[j].Entity.ID
	})
	if len(hits) > k {
		hits = hits[:k]
	}
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
