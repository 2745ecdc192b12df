package core

import (
	"strings"
	"testing"
)

func TestEntitiesMaterialisation(t *testing.T) {
	web := testWeb(t, 1, 0.9)
	rep, err := New(Config{}).Run(web.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	ents, err := rep.Entities()
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != len(rep.Clusters) {
		t.Fatalf("entities %d != clusters %d", len(ents), len(rep.Clusters))
	}
	totalRecords := 0
	for _, e := range ents {
		totalRecords += len(e.Records)
		if e.ID == "" || e.Title == "" {
			t.Fatalf("entity incomplete: %+v", e)
		}
		if len(e.Sources) == 0 {
			t.Fatalf("entity %s has no sources", e.ID)
		}
		for attr, c := range e.Confidence {
			if c < 0 || c > 1 {
				t.Errorf("entity %s attr %s confidence %f", e.ID, attr, c)
			}
		}
	}
	if totalRecords != web.Dataset.NumRecords() {
		t.Errorf("entities cover %d records of %d", totalRecords, web.Dataset.NumRecords())
	}
	// Multi-source entities must carry fused values.
	found := false
	for _, e := range ents {
		if len(e.Sources) > 1 && len(e.Values) > 0 {
			found = true
			break
		}
	}
	if !found {
		t.Error("no multi-source entity carries fused values")
	}
}

func TestSearchFindsEntityByTitle(t *testing.T) {
	web := testWeb(t, 1, 0.9)
	rep, err := New(Config{}).Run(web.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	ents, err := rep.Entities()
	if err != nil {
		t.Fatal(err)
	}
	// Query with the first multi-record entity's title words.
	var target *Entity
	for _, e := range ents {
		if len(e.Records) > 1 {
			target = e
			break
		}
	}
	if target == nil {
		t.Skip("no multi-record entity in sample")
	}
	hits, err := rep.Search(target.Title, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	if hits[0].Entity.ID != target.ID {
		// The exact title should rank its own entity first, or at least
		// in the top 3 (perturbed duplicates may tie).
		top3 := false
		for _, h := range hits[:min(3, len(hits))] {
			if h.Entity.ID == target.ID {
				top3 = true
			}
		}
		if !top3 {
			t.Errorf("target %s not in top hits for its own title %q", target.ID, target.Title)
		}
	}
	// Scores are sorted descending.
	for i := 1; i < len(hits); i++ {
		if hits[i].Score > hits[i-1].Score {
			t.Fatal("hits not sorted")
		}
	}
}

func TestSearchValidation(t *testing.T) {
	web := testWeb(t, 1, 0.9)
	rep, err := New(Config{}).Run(web.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Search("   ", 5); err == nil {
		t.Error("blank query must error")
	}
	hits, err := rep.Search("zzz-no-such-tokens-qqq", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 0 {
		t.Errorf("nonsense query matched %d entities", len(hits))
	}
	incomplete := &Report{}
	if _, err := incomplete.Entities(); err == nil {
		t.Error("incomplete report must error")
	}
}

func TestSearchLimit(t *testing.T) {
	web := testWeb(t, 1, 0.9)
	rep, err := New(Config{}).Run(web.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	// A broad query (category word appears in many titles).
	hits, err := rep.Search("camera", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) > 3 {
		t.Errorf("limit violated: %d hits", len(hits))
	}
}

func TestEntityIndexParsing(t *testing.T) {
	cases := map[string]int{"e0": 0, "e12": 12, "x1": -1, "e": -1, "e1x": -1}
	for in, want := range cases {
		if got := entityIndex(in); got != want {
			t.Errorf("entityIndex(%q) = %d, want %d", in, got, want)
		}
	}
	if !strings.HasPrefix("e0", "e") {
		t.Fatal("unreachable")
	}
}
