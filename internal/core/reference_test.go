package core

import (
	"reflect"
	"testing"

	"repro/internal/data"
	"repro/internal/tokenize"
)

// referenceIndex is the index build BuildSnapshot did before the shared
// indexer: one pass over the entities re-tokenising every title and
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
// pseudo-records — to the one-pass reference, entry for entry.
func TestIndexerMatchesReference(t *testing.T) {
	snap, err := testReport(t).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ref := buildReferenceIndex(snap.Entities())
	if !reflect.DeepEqual(snap.words.ids, ref.tokenIDs) {
		t.Errorf("token IDs differ: %d interned, the reference %d", len(snap.words.ids), len(ref.tokenIDs))
	}
	if !reflect.DeepEqual(snap.words.postings, ref.postings) {
		t.Error("posting lists differ from the reference")
	}
	for i := range ref.entTokens {
		if !reflect.DeepEqual(append([]uint32(nil), snap.entTokens[i]...), ref.entTokens[i]) {
			t.Fatalf("entity %d tokens %v, the reference %v", i, snap.entTokens[i], ref.entTokens[i])
		}
	}
	if len(snap.values.ids) != len(ref.valueIdx) {
		t.Errorf("%d value keys, the reference %d", len(snap.values.ids), len(ref.valueIdx))
	}
	for k, want := range ref.valueIdx {
		if got := snap.values.lookup(k); !reflect.DeepEqual(got, want) {
			t.Fatalf("value key %q lists %v, the reference %v", k, got, want)
		}
	}
	for i, e := range snap.Entities() {
		want := data.NewRecord("", "__snapshot__")
		if e.Title != "" {
			want.Set("title", data.String(e.Title))
		}
		for a, v := range e.Values {
			if a != "title" {
				want.Set(a, v)
			}
		}
		if !reflect.DeepEqual(snap.pseudo[i], want) {
			t.Fatalf("entity %d pseudo-record %v, want %v", i, snap.pseudo[i], want)
		}
	}
}
