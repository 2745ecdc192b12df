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
// values for keyword search and an exact value index plus per-field
// word sets per entity for record resolution — after which every read
// (Entity, Search, Similar, Resolve) is lock-free and safe for
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

	// Inverted keyword index over every distinct word of every entity's
	// title + fused string values; entTokens[i] is entity i's doc's word
	// IDs (its length is the |E| in the overlap/Jaccard blend Search
	// computes).
	words     inverted
	entTokens [][]uint32

	// Resolution index: every entity's doc, whose per-field word sets
	// Resolve scores a record against; the attributes the resolve rule
	// compares (the title and every fused attribute); and an exact index
	// over "attr\x00value-key" so identifier-style equality always
	// surfaces its entity as a candidate even when text overlap is zero.
	docs   []*entityDoc
	attrs  map[string]struct{}
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

	// Resolve's query: the words of its string values, its compared
	// fields in attribute order, and the fields' known word IDs.
	words  []string
	fields []queryField
	ids    []uint32
}

// queryField is one compared field of a Resolve query: its value and
// the word set of the value (of its rendering when it is not a string),
// as the IDs in ids[lo:hi] of the words the snapshot knows and the
// count of all its distinct words.
type queryField struct {
	attr   string
	val    data.Value
	lo, hi int32
	words  int32
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
	dict     tokenize.Dict
	postings [][]int32
}

func (ix *inverted) lookup(s string) []int32 {
	if id, ok := ix.dict.ID(s); ok {
		return ix.postings[id]
	}
	return nil
}

// invert cuts the posting lists of d's IDs out of one array, counting
// first: lists[e] holds entity e's distinct IDs.
func invert(d *tokenize.Dict, lists [][]uint32) inverted {
	count, total := make([]int32, d.Len()), 0
	for _, l := range lists {
		for _, id := range l {
			count[id]++
		}
		total += len(l)
	}
	postings, backing := make([][]int32, d.Len()), make([]int32, total)
	for id, n := range count {
		postings[id], backing = backing[:0:n], backing[n:]
	}
	for e, l := range lists {
		for _, id := range l {
			postings[id] = append(postings[id], int32(e))
		}
	}
	return inverted{dict: d.Freeze(), postings: postings}
}

// held marks the IDs some entity carries and counts them.
func (ix *inverted) held() (held []bool, n int) {
	held = make([]bool, len(ix.postings))
	for id, p := range ix.postings {
		if len(p) > 0 {
			held[id] = true
			n++
		}
	}
	return held, n
}

// entityDoc is the part of an entity's index entry that depends on
// nothing but its title and fused values — not on its position among the
// entities nor on any other entity — so a Stream can keep it for as long
// as those do not change. It is immutable once built: snapshots share it.
type entityDoc struct {
	values map[string]data.Value // the fused values (Entity.Values)
	attrs  []string              // their attributes, sorted
	// words holds the word dictionary IDs of the distinct normalised
	// words of the title and of every fused string value (in attribute
	// order), in first-encounter order.
	words []uint32
	keys  []uint32 // the value dictionary IDs of "attr\x00value-key" of every fused value
	// title and sets are the sorted distinct word IDs of the title and of
	// each fused string value, sets parallel to attrs (empty for other
	// kinds): the word sets Resolve scores a record against. They are the
	// doc's own copies.
	title []uint32
	sets  [][]uint32
}

// newEntityDoc builds the doc of an entity whose title has the words
// title and with the given fused values, interning their value keys.
// title holds word dictionary IDs, possibly repeated, and wordIDs(attr)
// returns those of the words of the fused string value of attr; each is
// asked for once, and one array backs every field's word set.
func newEntityDoc(title []uint32, values map[string]data.Value, wordIDs func(attr string) []uint32, keys *tokenize.Dict) *entityDoc {
	doc := &entityDoc{
		values: values,
		attrs:  sortedKeys(values),
		keys:   make([]uint32, 0, len(values)),
	}
	texts := make([][]uint32, len(doc.attrs)+1)
	texts[0] = title
	n := len(texts[0])
	for i, attr := range doc.attrs {
		if values[attr].Kind == data.KindString {
			texts[i+1] = wordIDs(attr)
			n += len(texts[i+1])
		}
	}
	backing, sets := make([]uint32, 0, n), make([][]uint32, len(texts))
	for i, text := range texts {
		lo := len(backing)
		for _, id := range text {
			if !slices.Contains(doc.words, id) {
				doc.words = append(doc.words, id)
			}
			backing = append(backing, id)
		}
		slices.Sort(backing[lo:])
		backing = backing[:lo+len(slices.Compact(backing[lo:]))]
		sets[i] = backing[lo:len(backing):len(backing)]
	}
	doc.title, doc.sets = sets[0], sets[1:]
	for _, attr := range doc.attrs {
		doc.keys = append(doc.keys, keys.Intern(attr+"\x00"+values[attr].Key()))
	}
	return doc
}

// newSnapshot assembles a Snapshot from entities and their docs, in
// entity order — the one way a snapshot is built, whether the docs were
// made on the spot (BuildSnapshot) or kept from an earlier publish
// (Stream). The docs' IDs come from words and keys; each doc was built
// from its entity's Title and Values. Resolve compares the title and
// every fused attribute.
func newSnapshot(ents []*Entity, docs []*entityDoc, words, keys *tokenize.Dict) *Snapshot {
	s := &Snapshot{entities: ents, entTokens: make([][]uint32, len(docs)), docs: docs, attrs: map[string]struct{}{titleAttr: {}}}
	keyIDs := make([][]uint32, len(docs))
	for i, doc := range docs {
		s.entTokens[i], keyIDs[i] = doc.words, doc.keys
		for _, a := range doc.attrs {
			s.attrs[a] = struct{}{}
		}
	}
	s.words, s.values = invert(words, s.entTokens), invert(keys, keyIDs)
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
	words, keys, docs := tokenize.NewDict(), tokenize.NewDict(), make([]*entityDoc, len(ents))
	for i, e := range ents {
		docs[i] = newEntityDoc(words.InternAll(tokenize.Words(e.Title)), e.Values, func(attr string) []uint32 {
			return words.InternAll(tokenize.Words(e.Values[attr].Str))
		}, keys)
	}
	return newSnapshot(ents, docs, words, keys), nil
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
		for _, rid := range cl {
			rec := r.Normalized.Record(rid)
			if rec == nil {
				continue
			}
			if !slices.Contains(e.Sources, rec.SourceID) {
				e.Sources = append(e.Sources, rec.SourceID)
			}
			if t := rec.Get("title"); !t.IsNull() && len(t.Str) > len(e.Title) {
				e.Title = t.Str
			}
		}
		sort.Strings(e.Sources)
		out = append(out, e)
	}
	// Attach fused values.
	for it, v := range r.Fusion.Values {
		if idx := entityIndex(it.Entity); idx >= 0 && idx < len(out) {
			out[idx].Values[it.Attr] = v
			out[idx].Confidence[it.Attr] = r.Fusion.Confidence[it]
		}
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
	if i := entityIndex(id); i >= 0 && i < len(s.entities) {
		return s.entities[i], true
	}
	return nil, false
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
	self := entityIndex(id)
	if self < 0 || self >= len(s.entities) {
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
		if id, ok := s.words.dict.ID(w); ok {
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
// by the pipeline rule's weighted per-field Jaccard over the title and
// every fused attribute, and the top k are returned sorted by score
// descending, byte-wise entity ID ascending. The record is tokenised
// once; candidates are scored from their docs' cached word sets. k 0
// means DefaultSearchLimit; negative k is a validation error.
func (s *Snapshot) Resolve(rec *data.Record, k int) ([]Hit, error) {
	k, err := searchLimit(k)
	if err != nil {
		return nil, err
	}
	if rec == nil || len(rec.Fields()) == 0 {
		return nil, fmt.Errorf("core: empty record")
	}
	sc := s.getScratch()
	s.queryFields(sc, rec.Fields())
	nq := s.queryTokens(sc, sc.words)
	// A shortlist bounded well above k keeps the comparator pass cheap
	// while leaving room for the exact-value candidates to rerank. The
	// candidates are deduped by marking them in the scratch.
	for _, c := range s.probe(sc, sc.toks, nq, -1, max(4*k, 32)) {
		sc.mark(c.e)
	}
	for _, f := range rec.Fields() {
		for _, e := range s.values.lookup(f.Attr + "\x00" + f.Value.Key()) {
			sc.mark(e)
		}
	}
	sc.top = sc.top[:0]
	for _, e := range sc.touched {
		sc.counts[e] = 0
		if score := s.resolveScore(sc, e); score > 0 {
			s.keep(sc, scored{score: score, e: e}, k)
		}
	}
	sc.touched = sc.touched[:0]
	hits := s.hits(s.ranked(sc.top))
	clear(sc.words)
	clear(sc.fields)
	sc.words, sc.fields = sc.words[:0], sc.fields[:0]
	s.scratch.Put(sc)
	return hits, nil
}

// queryFields tokenises a Resolve query once: sc.words collects the
// words of every string value for the text probe, and sc.fields the
// word sets of the values of the attributes the snapshot compares.
func (s *Snapshot) queryFields(sc *queryScratch, fields []data.Field) {
	sc.ids = sc.ids[:0]
	for _, f := range fields {
		attr, v := f.Attr, f.Value
		var words []string
		if v.Kind == data.KindString {
			words = tokenize.WordSet(v.Str)
			sc.words = append(sc.words, words...)
		}
		if _, ok := s.attrs[attr]; !ok {
			continue
		}
		if v.Kind != data.KindString {
			words = tokenize.WordSet(v.String())
		}
		lo := len(sc.ids)
		for _, w := range words {
			if id, ok := s.words.dict.ID(w); ok {
				sc.ids = append(sc.ids, id)
			}
		}
		slices.Sort(sc.ids[lo:])
		sc.fields = append(sc.fields, queryField{attr: attr, val: v, lo: int32(lo), hi: int32(len(sc.ids)), words: int32(len(words))})
	}
}

// resolveScore is what the pipeline rule's comparator over the
// snapshot's attributes scores the query against entity e's title and
// fused values, bit for bit: the query's fields and the doc's, both in
// attribute order, are merged, a field on one side only scores "no
// evidence", and the terms are added in attribute order. The doc's word
// sets are read, never rebuilt; only a non-string fused value met by a
// query value of another kind is rendered, as similarity.Values does.
func (s *Snapshot) resolveScore(sc *queryScratch, e int32) float64 {
	doc := s.docs[e]
	m := resolveMerge{q: sc.fields, ids: sc.ids, doc: doc, title: s.entities[e].Title}
	// The entity's title takes the title's place among the fused
	// attributes; a fused "title" value is not compared.
	at, _ := slices.BinarySearch(doc.attrs, titleAttr)
	for i := 0; i <= len(doc.attrs); i++ {
		if i == at && m.title != "" {
			m.docField(titleAttr, doc.title)
		}
		if i < len(doc.attrs) && doc.attrs[i] != titleAttr {
			m.docField(doc.attrs[i], doc.sets[i])
		}
	}
	for _, f := range m.q {
		m.avg.AddOneSided(ruleWeight(f.attr))
	}
	return m.avg.Score()
}

// resolveMerge is resolveScore's walk: the query fields not yet merged,
// the candidate's doc and title, and the running average.
type resolveMerge struct {
	avg   similarity.WeightedAverage
	q     []queryField
	ids   []uint32
	doc   *entityDoc
	title string
}

// docField adds the doc's field attr, whose words are set, after the
// query fields that sort before it. The field's value is read only when
// the query carries the attribute too.
func (m *resolveMerge) docField(attr string, set []uint32) {
	for len(m.q) > 0 && m.q[0].attr < attr {
		m.avg.AddOneSided(ruleWeight(m.q[0].attr))
		m.q = m.q[1:]
	}
	if len(m.q) == 0 || m.q[0].attr != attr {
		m.avg.AddOneSided(ruleWeight(attr))
		return
	}
	f, v := m.q[0], data.String(m.title)
	m.q = m.q[1:]
	if attr != titleAttr {
		v = m.doc.values[attr]
	}
	m.avg.Add(ruleWeight(attr), similarity.JaccardValues(f.val, m.ids[f.lo:f.hi], int(f.words), v, set))
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
