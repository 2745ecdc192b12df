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
// pipeline run. A Snapshot materialises every integrated entity ONCE,
// builds an inverted token index over titles and fused string values
// for keyword search, and a title/value feature index for record
// resolution — after which every read (Entity, Search, Similar,
// Resolve) is lock-free and safe for unbounded concurrency. This is
// the structure a long-lived service (cmd/bdiserve) swaps atomically
// when a background rebuild completes.

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

	// Inverted keyword index: tokenIDs interns every distinct word of
	// every entity's title + fused string values; postings[tok] lists
	// the entities containing that word in ascending index order;
	// entTokens[i] holds entity i's distinct token IDs (its length is
	// the |E| in the overlap/Jaccard blend Search computes).
	tokenIDs  map[string]uint32
	postings  [][]int32
	entTokens [][]uint32

	// Resolution index: one pseudo-record per entity (title + fused
	// values) scored by a weighted per-field comparator with a
	// prebuilt feature index, plus an exact value-key index so
	// identifier-style equality always surfaces its entity as a
	// candidate even when text overlap is zero.
	pseudo   []*data.Record
	cmp      *similarity.RecordComparator
	valueIdx map[string][]int32
}

// BuildSnapshot materialises the serving snapshot for a completed
// report: every entity with its fused values, the inverted keyword
// index and the resolution feature index are built here, once, so the
// read methods never materialise anything per query.
func BuildSnapshot(r *Report) (*Snapshot, error) {
	ents, err := materializeEntities(r)
	if err != nil {
		return nil, err
	}
	s := &Snapshot{
		entities:  ents,
		byID:      make(map[string]int, len(ents)),
		tokenIDs:  map[string]uint32{},
		entTokens: make([][]uint32, len(ents)),
		pseudo:    make([]*data.Record, len(ents)),
		valueIdx:  map[string][]int32{},
	}
	attrSet := map[string]bool{}
	for i, e := range ents {
		s.byID[e.ID] = i
		// Index the entity's searchable text: distinct words of the
		// title plus every fused string value, interned in
		// first-encounter order so the build is deterministic.
		s.indexWords(i, e.Title)
		p := data.NewRecord(e.ID, "__snapshot__")
		if e.Title != "" {
			p.Set("title", data.String(e.Title))
		}
		for _, attr := range sortedKeys(e.Values) {
			v := e.Values[attr]
			if v.Kind == data.KindString {
				s.indexWords(i, v.Str)
			}
			if attr != "title" {
				p.Set(attr, v)
			}
			attrSet[attr] = true
			s.valueIdx[attr+"\x00"+v.Key()] = append(s.valueIdx[attr+"\x00"+v.Key()], int32(i))
		}
		s.pseudo[i] = p
	}
	// The resolution comparator is the pipeline rule's, over the title
	// and every fused attribute. The feature index over the
	// pseudo-records precomputes the entity-side token sets.
	attrSet["title"] = true
	s.cmp = ruleComparator(sortedKeys(attrSet))
	s.cmp.AttachIndex(similarity.BuildFeatureIndex(s.pseudo, s.cmp))
	return s, nil
}

// indexWords interns the distinct normalised words of text, appends
// entity ent to each new word's posting list and records the token on
// the entity's own token list, skipping words already indexed for this
// entity. A word is "already indexed" exactly when the tail of the
// word's posting list is ent — entities are indexed in ascending
// order, so no per-entity seen-set is needed.
func (s *Snapshot) indexWords(ent int, text string) {
	for _, w := range tokenize.Words(text) {
		id, ok := s.tokenIDs[w]
		if !ok {
			id = uint32(len(s.postings))
			s.tokenIDs[w] = id
			s.postings = append(s.postings, nil)
		}
		if pl := s.postings[id]; len(pl) > 0 && pl[len(pl)-1] == int32(ent) {
			continue
		}
		s.postings[id] = append(s.postings[id], int32(ent))
		s.entTokens[ent] = append(s.entTokens[ent], id)
	}
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
		if id, ok := s.tokenIDs[w]; ok {
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
		for _, e := range s.postings[tok] {
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
		for _, e := range s.valueIdx[attr+"\x00"+v.Key()] {
			cand[e] = true
		}
	}
	toks := make([]uint32, 0, len(qset))
	for w := range qset {
		if id, ok := s.tokenIDs[w]; ok {
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
