package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"repro/internal/data"
	"repro/internal/source"
	"repro/internal/tokenize"
)

// referenceIndex is the index build BuildSnapshot did before the shared
// assembly: one pass over the entities re-tokenising every title and
// fused string value, posting lists grown by append, kept as the oracle
// for the two-pass assembly from entity docs.
type referenceIndex struct {
	tokenIDs  map[string]uint32
	postings  [][]int32
	entTokens [][]uint32
	valueIdx  map[string][]int32
}

func buildReferenceIndex(ents []*Entity) *referenceIndex {
	s := &referenceIndex{
		tokenIDs:  map[string]uint32{},
		entTokens: make([][]uint32, len(ents)),
		valueIdx:  map[string][]int32{},
	}
	// A word is "already indexed" for an entity exactly when the tail of
	// its posting list is that entity: entities are indexed in order.
	indexWords := func(ent int, text string) {
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
	for i, e := range ents {
		indexWords(i, e.Title)
		for _, attr := range sortedKeys(e.Values) {
			v := e.Values[attr]
			if v.Kind == data.KindString {
				indexWords(i, v.Str)
			}
			s.valueIdx[attr+"\x00"+v.Key()] = append(s.valueIdx[attr+"\x00"+v.Key()], int32(i))
		}
	}
	return s
}

// TestIndexerMatchesReference pins the assembled index — token IDs,
// posting lists, per-entity token lists, the exact-value index and the
// per-field word sets Resolve reads — to the one-pass reference, entry
// for entry.
func TestIndexerMatchesReference(t *testing.T) {
	snap, err := testReport(t).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ref := buildReferenceIndex(snap.Entities())
	if words := dictAll(&snap.words.dict); !reflect.DeepEqual(words, ref.tokenIDs) {
		t.Errorf("token IDs differ: %d interned, the reference %d", len(words), len(ref.tokenIDs))
	}
	if !reflect.DeepEqual(snap.words.postings, ref.postings) {
		t.Error("posting lists differ from the reference")
	}
	for i := range ref.entTokens {
		if !reflect.DeepEqual(append([]uint32(nil), snap.entTokens[i]...), ref.entTokens[i]) {
			t.Fatalf("entity %d tokens %v, the reference %v", i, snap.entTokens[i], ref.entTokens[i])
		}
	}
	if keys := dictAll(&snap.values.dict); len(keys) != len(ref.valueIdx) {
		t.Errorf("%d value keys, the reference %d", len(keys), len(ref.valueIdx))
	}
	for k, want := range ref.valueIdx {
		if got := snap.values.lookup(k); !reflect.DeepEqual(got, want) {
			t.Fatalf("value key %q lists %v, the reference %v", k, got, want)
		}
	}
	for i, e := range snap.Entities() {
		doc := snap.docs[i]
		if want := referenceWordSet(snap, e.Title); !reflect.DeepEqual(append([]uint32{}, doc.title...), want) {
			t.Fatalf("entity %d title set %v, the reference %v", i, doc.title, want)
		}
		for j, a := range doc.attrs {
			var want []uint32
			if v := e.Values[a]; v.Kind == data.KindString {
				want = referenceWordSet(snap, v.Str)
			}
			if !reflect.DeepEqual(append([]uint32{}, doc.sets[j]...), append([]uint32{}, want...)) {
				t.Fatalf("entity %d %s set %v, the reference %v", i, a, doc.sets[j], want)
			}
		}
	}
}

// referenceWordSet is the sorted word IDs of text's distinct words.
func referenceWordSet(s *Snapshot, text string) []uint32 {
	ids := []uint32{}
	for _, w := range tokenize.WordSet(text) {
		id, _ := s.words.dict.ID(w)
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// referencePseudo is the record Resolve scored a query against before
// it read cached word sets: the entity's title plus every fused value
// but a fused "title".
func referencePseudo(e *Entity) *data.Record {
	r := data.NewRecord("", "__snapshot__")
	if e.Title != "" {
		r.Set("title", data.String(e.Title))
	}
	for a, v := range e.Values {
		if a != "title" {
			r.Set(a, v)
		}
	}
	return r
}

// dictAll returns every string the dictionary knows with its ID.
func dictAll(d *tokenize.Dict) map[string]uint32 {
	out := make(map[string]uint32, d.Len())
	for id := range d.Len() {
		out[d.Token(uint32(id))] = uint32(id)
	}
	return out
}

// dictBase identifies a dictionary's base map, so a test can tell
// whether a fold gave it a new one.
func dictBase(d *tokenize.Dict) uintptr {
	return reflect.ValueOf(d).Elem().FieldByName("base").Pointer()
}

// referenceProbe is the map-and-sort probe Snapshot.probe replaced, kept
// as the oracle for the pooled kernel: postings are accumulated into a
// map, every touched entity is scored and the whole hit list is sorted
// by score descending, then byte-wise Entity.ID ascending.
func referenceProbe(s *Snapshot, toks []uint32, nq, exclude, limit int) []Hit {
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
	sortReferenceHits(hits)
	if len(hits) > limit {
		hits = hits[:limit]
	}
	return hits
}

func sortReferenceHits(hits []Hit) {
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].Entity.ID < hits[j].Entity.ID
	})
}

// referenceQueryTokens is the query side of the legacy Search: the
// distinct words through a map, the known ones looked up one by one.
func referenceQueryTokens(s *Snapshot, qset []string) []uint32 {
	toks := make([]uint32, 0, len(qset))
	for _, w := range qset {
		if id, ok := s.words.dict.ID(w); ok {
			toks = append(toks, id)
		}
	}
	return toks
}

func referenceSearch(s *Snapshot, query string, limit int) []Hit {
	qset := tokenize.WordSet(tokenize.Normalize(query))
	return referenceProbe(s, referenceQueryTokens(s, qset), len(qset), -1, limit)
}

func referenceSimilar(s *Snapshot, self, k int) []Hit {
	toks := s.entTokens[self]
	return referenceProbe(s, toks, len(toks), self, k)
}

// referenceResolve is the legacy Resolve body: candidates deduped in
// maps, the keyword shortlist mapped back through entityIndex, every
// candidate scored by the pipeline rule's comparator over the
// snapshot's attributes against its pseudo-record, and the whole list
// sorted.
func referenceResolve(s *Snapshot, rec *data.Record, k int) []Hit {
	cmp := ruleComparator(sortedKeys(s.attrs))
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
	shortlist := 4 * k
	if shortlist < 32 {
		shortlist = 32
	}
	words := make([]string, 0, len(qset))
	for w := range qset {
		words = append(words, w)
	}
	for _, h := range referenceProbe(s, referenceQueryTokens(s, words), len(qset), -1, shortlist) {
		cand[int32(entityIndex(h.Entity.ID))] = true
	}
	hits := make([]Hit, 0, len(cand))
	for e := range cand {
		if sc := cmp.Compare(rec, referencePseudo(s.entities[e])); sc > 0 {
			hits = append(hits, Hit{Entity: s.entities[e], Score: sc})
		}
	}
	sortReferenceHits(hits)
	if len(hits) > k {
		hits = hits[:k]
	}
	return hits
}

// bruteForce scores every entity but exclude against the distinct query
// token set by direct set intersection, with no index at all.
func bruteForce(s *Snapshot, qtoks map[uint32]bool, nq, exclude, limit int) []Hit {
	if nq == 0 {
		return nil
	}
	var hits []Hit
	for i, toks := range s.entTokens {
		inter := 0
		for _, tok := range toks {
			if qtoks[tok] {
				inter++
			}
		}
		if i == exclude || inter == 0 {
			continue
		}
		ne := len(toks)
		overlap := float64(inter) / float64(min(nq, ne))
		jaccard := float64(inter) / float64(nq+ne-inter)
		hits = append(hits, Hit{Entity: s.entities[i], Score: 0.7*overlap + 0.3*jaccard})
	}
	sortReferenceHits(hits)
	return hits[:min(limit, len(hits))]
}

func bruteSearch(s *Snapshot, query string, limit int) []Hit {
	qset := tokenize.WordSet(tokenize.Normalize(query))
	qtoks := map[uint32]bool{}
	for _, tok := range referenceQueryTokens(s, qset) {
		qtoks[tok] = true
	}
	return bruteForce(s, qtoks, len(qset), -1, limit)
}

func bruteSimilar(s *Snapshot, self, k int) []Hit {
	qtoks := map[uint32]bool{}
	for _, tok := range s.entTokens[self] {
		qtoks[tok] = true
	}
	return bruteForce(s, qtoks, len(qtoks), self, k)
}

// tieSnapshot builds a snapshot of n entities drawn from four title
// shapes and two years, so whole classes of entities share a score and
// the byte-wise Entity.ID tie-break ("e10" < "e2") decides every cut.
func tieSnapshot(n int) *Snapshot {
	titles := []string{"alpha beta", "alpha beta gamma", "alpha gamma", "beta"}
	ents, docs := make([]*Entity, n), make([]*entityDoc, n)
	words, keys := tokenize.NewDict(), tokenize.NewDict()
	for i := 0; i < n; i++ {
		title := titles[i%len(titles)]
		values := map[string]data.Value{
			"brand": data.String("acme"),
			"year":  data.Number(float64(2020 + i%2)),
		}
		ents[i] = &Entity{ID: fmt.Sprintf("e%d", i), Title: title, Values: values}
		docs[i] = newEntityDoc(words.InternAll(tokenize.Words(title)), values, func(attr string) []uint32 {
			return words.InternAll(tokenize.Words(values[attr].Str))
		}, keys)
	}
	return newSnapshot(ents, docs, words, keys)
}

// queryCase is one read of a snapshot and its reference answer.
type queryCase struct {
	name string
	run  func() ([]Hit, error)
	want []Hit
}

// kernelCases lists the queries the kernel is checked on for snap: the
// given keyword queries, Similar on every entity and Resolve on the given
// records, each at every limit, with the reference answer attached.
// Search and Similar must also agree with the brute-force scan.
func kernelCases(t *testing.T, snap *Snapshot, queries []string, recs []*data.Record) []queryCase {
	t.Helper()
	var cases []queryCase
	for _, limit := range []int{1, 3, 10, 1000} {
		for _, q := range queries {
			want := referenceSearch(snap, q, limit)
			if d := sameHits(bruteSearch(snap, q, limit), want); d != nil {
				t.Fatalf("brute-force Search(%q, %d) disagrees with the reference: %s", q, limit, d)
			}
			cases = append(cases, queryCase{fmt.Sprintf("Search(%q, %d)", q, limit),
				func() ([]Hit, error) { return snap.Search(q, limit) }, want})
		}
		for i, e := range snap.Entities() {
			want := referenceSimilar(snap, i, limit)
			if d := sameHits(bruteSimilar(snap, i, limit), want); d != nil {
				t.Fatalf("brute-force Similar(%s, %d) disagrees with the reference: %s", e.ID, limit, d)
			}
			cases = append(cases, queryCase{fmt.Sprintf("Similar(%s, %d)", e.ID, limit),
				func() ([]Hit, error) { return snap.Similar(e.ID, limit) }, want})
		}
		for _, rec := range recs {
			cases = append(cases, queryCase{fmt.Sprintf("Resolve(%v, %d)", rec, limit),
				func() ([]Hit, error) { return snap.Resolve(rec, limit) }, referenceResolve(snap, rec, limit)})
		}
	}
	return cases
}

// reportKernelCases is kernelCases over the test report's snapshot:
// known, partly known and wholly unknown keyword queries, every fifth
// title, and records resolving by title, by an exact numeric value, by
// nothing and by the mixed records of mixedResolveRecords.
func reportKernelCases(t *testing.T, snap *Snapshot) []queryCase {
	queries := []string{"camera", "nova", "pro 4", "camera zzz", "zzz nothing", "qqq"}
	var recs []*data.Record
	for i, e := range snap.Entities() {
		if i%5 != 0 || e.Title == "" {
			continue
		}
		queries = append(queries, e.Title)
		recs = append(recs, data.NewRecord("q", "client").Set("title", data.String(e.Title)))
		for _, a := range sortedKeys(e.Values) {
			if v := e.Values[a]; v.Kind == data.KindNumber {
				recs = append(recs, data.NewRecord("q", "client").Set(a, v))
				break
			}
		}
		recs = append(recs, mixedResolveRecords(e)...)
	}
	recs = append(recs, data.NewRecord("q", "client").Set("title", data.String("zzz nothing")))
	return kernelCases(t, snap, queries, recs)
}

// mixedResolveRecords derives from entity e the records the resolve
// kernel must score like the comparator: every string field of e at
// once, with a word no entity carries added to each; the title with a
// punctuation-only value of a string attribute; a number where e holds
// a string (for the title, a number its words spell); a string where e
// holds a number; and the title beside an attribute no entity carries.
func mixedResolveRecords(e *Entity) []*data.Record {
	several := data.NewRecord("q", "client").Set("title", data.String(e.Title+" zzzunknown"))
	punct := data.NewRecord("q", "client").Set("title", data.String(e.Title))
	numForStr := data.NewRecord("q", "client").Set("title", data.String(e.Title))
	strForNum := data.NewRecord("q", "client").Set("title", data.String(e.Title))
	for _, a := range sortedKeys(e.Values) {
		switch v := e.Values[a]; v.Kind {
		case data.KindString:
			several.Set(a, data.String(v.Str+" qqqword"))
			punct.Set(a, data.String("!?! --"))
			numForStr.Set(a, data.Number(300))
		case data.KindNumber:
			strForNum.Set(a, data.String(v.String()+" units"))
		}
	}
	recs := []*data.Record{several, punct, numForStr, strForNum,
		data.NewRecord("q", "client").Set("title", data.String(e.Title)).Set("no_entity_has_this", data.String(e.Title))}
	for _, w := range tokenize.Words(e.Title) {
		if x, err := strconv.ParseFloat(w, 64); err == nil {
			// e's string values make the candidates the title is scored on.
			rec := data.NewRecord("q", "client").Set("title", data.Number(x))
			for a, v := range e.Values {
				if a != "title" && v.Kind == data.KindString {
					rec.Set(a, v)
				}
			}
			recs = append(recs, rec)
			break
		}
	}
	return recs
}

// tieKernelCases is kernelCases over a tie-heavy snapshot.
func tieKernelCases(t *testing.T, snap *Snapshot) []queryCase {
	queries := []string{"alpha", "beta", "alpha beta", "gamma beta", "alpha zzz", "zzz"}
	recs := []*data.Record{
		data.NewRecord("q", "client").Set("title", data.String("alpha beta")),
		data.NewRecord("q", "client").Set("title", data.String("beta")).Set("brand", data.String("acme")),
		data.NewRecord("q", "client").Set("year", data.Number(2021)),
		data.NewRecord("q", "client").Set("title", data.String("zzz")),
		data.NewRecord("q", "client").Set("title", data.String("alpha zzz")).Set("brand", data.String("acme corp")),
		data.NewRecord("q", "client").Set("title", data.String("!!!")).Set("brand", data.String("...")),
		data.NewRecord("q", "client").Set("title", data.String("beta")).Set("brand", data.Number(7)),
		data.NewRecord("q", "client").Set("year", data.String("2021")),
		data.NewRecord("q", "client").Set("title", data.String("gamma")).Set("color", data.String("red")),
	}
	return kernelCases(t, snap, queries, recs)
}

// churnedSnapshot is the snapshot of a Stream after a churned op
// sequence: upserts, updates and deletes of the FuzzStreamOps records,
// publishing every 40 ops, so the final snapshot mixes docs kept from
// earlier publishes with rebuilt ones.
func churnedSnapshot(t *testing.T) *Snapshot {
	s, err := NewStream(StreamConfig{MaxBlock: 6, PublishEvery: 1 << 30}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	var snap *Snapshot
	for op := 0; op < 600; op++ {
		id := fmt.Sprintf("r%02d", rng.Intn(fuzzStreamIDs))
		dl := source.Deletion(id)
		if rng.Intn(5) != 0 {
			a, b := byte(rng.Intn(256)), byte(rng.Intn(256))
			dl = source.Upsert(fuzzStreamRecord(id, a, b))
		}
		if err := s.ApplyDeltas(fuzzStreamMetas, source.DeltaEpoch{Seq: s.Epoch(), Deltas: []source.Delta{dl}}); err != nil {
			t.Fatal(err)
		}
		if op%40 == 39 {
			if snap, err = s.Publish(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
	}
	return snap
}

// churnKernelCases is kernelCases over a churned stream's snapshot: its
// titles as queries, and as records every entity's title with its
// fused values, spelt as they are and as mixedResolveRecords mixes them.
func churnKernelCases(t *testing.T, snap *Snapshot) []queryCase {
	queries := []string{"acme0", "omega1 omega2", "red", "acme zzz"}
	var recs []*data.Record
	for _, e := range snap.Entities() {
		if e.Title == "" {
			continue
		}
		queries = append(queries, e.Title)
		rec := data.NewRecord("q", "client").Set("title", data.String(e.Title))
		for a, v := range e.Values {
			rec.Set(a, v)
		}
		recs = append(recs, rec)
		recs = append(recs, mixedResolveRecords(e)...)
	}
	return kernelCases(t, snap, queries, recs)
}

// TestQueryKernelMatchesReference pins Search, Similar and Resolve hit
// for hit — entity ID and score bits — to the map-and-sort reference
// and, for Search and Similar, to a brute-force scan of every entity:
// at limits 1, 3, 10 and 1000, with Similar excluding itself, on
// queries with no known word, on a web where ties decide the cut, and
// on a churned stream's snapshot.
func TestQueryKernelMatchesReference(t *testing.T) {
	snap, err := testReport(t).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ties := tieSnapshot(37)
	cases := append(reportKernelCases(t, snap), tieKernelCases(t, ties)...)
	cases = append(cases, churnKernelCases(t, churnedSnapshot(t))...)
	for _, c := range cases {
		got, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if d := sameHits(got, c.want); d != nil {
			t.Fatalf("%s: %s", c.name, d)
		}
	}
	// The tie web must really be decided by the tie-break: "alpha"
	// scores every even entity alike, and the byte-wise order puts e10
	// and e12 before e2.
	hits, _ := ties.Search("alpha", 3)
	if ids := []string{hits[0].Entity.ID, hits[1].Entity.ID, hits[2].Entity.ID}; hits[0].Score != hits[2].Score || ids[1] != "e10" || ids[2] != "e12" {
		t.Errorf("tie web top 3 for alpha = %v, want equal scores cut by byte-wise ID", ids)
	}
}
