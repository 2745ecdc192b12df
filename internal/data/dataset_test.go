package data

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func buildSample(t *testing.T) *Dataset {
	t.Helper()
	d := NewDataset()
	for _, sid := range []string{"s1", "s2"} {
		if err := d.AddSource(&Source{ID: sid, Name: "source " + sid}); err != nil {
			t.Fatal(err)
		}
	}
	recs := []*Record{
		NewRecord("r1", "s1").Set("title", String("iphone 12")).Set("price", Number(799)),
		NewRecord("r2", "s1").Set("title", String("galaxy s21")).Set("price", Number(699)),
		NewRecord("r3", "s2").Set("title", String("iPhone-12")).Set("color", String("black")),
	}
	recs[0].EntityID = "e1"
	recs[1].EntityID = "e2"
	recs[2].EntityID = "e1"
	for _, r := range recs {
		if err := d.AddRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestDatasetIndexes(t *testing.T) {
	d := buildSample(t)
	if d.NumSources() != 2 || d.NumRecords() != 3 {
		t.Fatalf("got %d sources, %d records", d.NumSources(), d.NumRecords())
	}
	if got := len(d.SourceRecords("s1")); got != 2 {
		t.Errorf("s1 should own 2 records, got %d", got)
	}
	if d.Record("r3").Get("color").Str != "black" {
		t.Error("r3 color lookup failed")
	}
	if d.Record("nope") != nil {
		t.Error("missing record should be nil")
	}
}

func TestDatasetRejectsBadInput(t *testing.T) {
	d := NewDataset()
	if err := d.AddSource(&Source{}); err == nil {
		t.Error("empty source ID must be rejected")
	}
	if err := d.AddRecord(NewRecord("r", "ghost")); err == nil {
		t.Error("record with unknown source must be rejected")
	}
	_ = d.AddSource(&Source{ID: "s"})
	_ = d.AddRecord(NewRecord("r", "s"))
	if err := d.AddRecord(NewRecord("r", "s")); err == nil {
		t.Error("duplicate record ID must be rejected")
	}
}

func TestDatasetRemoveRecord(t *testing.T) {
	d := buildSample(t)
	if !d.RemoveRecord("r1") {
		t.Fatal("r1 should be removable")
	}
	if d.RemoveRecord("r1") {
		t.Error("second removal should report absence")
	}
	if d.NumRecords() != 2 {
		t.Errorf("want 2 records after removal, got %d", d.NumRecords())
	}
	for _, r := range d.SourceRecords("s1") {
		if r.ID == "r1" {
			t.Error("r1 still indexed under s1")
		}
	}
}

// TestDatasetRemoveKeepsOrderWithoutScan drives a seeded mix of adds and
// removals against the obvious model — two slices closed up on every
// removal — and pins what the blanked-slot lists promise: the same
// insertion order from every reader, lists no longer than twice what is
// live, and a removal cost that does not grow with the dataset.
func TestDatasetRemoveKeepsOrderWithoutScan(t *testing.T) {
	d := NewDataset()
	sources := []string{"s0", "s1", "s2"}
	for _, s := range sources {
		if err := d.AddSource(&Source{ID: s}); err != nil {
			t.Fatal(err)
		}
	}
	var order []string
	bySrc := map[string][]string{}
	drop := func(l []string, id string) []string {
		i := slices.Index(l, id)
		return append(l[:i], l[i+1:]...)
	}
	ids := func(rs []*Record) []string {
		out := []string{}
		for _, r := range rs {
			out = append(out, r.ID)
		}
		return out
	}
	rng := rand.New(rand.NewSource(5))
	removals := 0
	for step := 0; step < 6000; step++ {
		if len(order) == 0 || rng.Intn(100) < 55 {
			// IDs come back: a removed record re-added goes to the end.
			id, src := fmt.Sprintf("r%d", rng.Intn(400)), sources[rng.Intn(len(sources))]
			if d.Record(id) != nil {
				continue
			}
			if err := d.AddRecord(NewRecord(id, src).Set("a"+src, Number(1))); err != nil {
				t.Fatal(err)
			}
			order, bySrc[src] = append(order, id), append(bySrc[src], id)
		} else {
			id := order[rng.Intn(len(order))]
			src := d.Record(id).SourceID
			if !d.RemoveRecord(id) || d.RemoveRecord(id) {
				t.Fatalf("step %d: removing %s twice reported (false, _) or (_, true)", step, id)
			}
			order, bySrc[src] = drop(order, id), drop(bySrc[src], id)
			removals++
		}
		if step%50 != 0 {
			continue
		}
		if got := ids(d.Records()); !slices.Equal(got, order) {
			t.Fatalf("step %d: Records() = %v, want %v", step, got, order)
		}
		attrs := 0
		for _, s := range sources {
			if got := ids(d.SourceRecords(s)); !slices.Equal(got, append([]string{}, bySrc[s]...)) {
				t.Fatalf("step %d: SourceRecords(%s) = %v, want %v", step, s, got, bySrc[s])
			}
			if len(bySrc[s]) > 0 {
				attrs++
			}
		}
		if got := len(d.Attributes()); got != attrs {
			t.Fatalf("step %d: %d attributes, want %d", step, got, attrs)
		}
		if len(d.order.ids) > 2*len(order)+1 {
			t.Fatalf("step %d: order list holds %d slots for %d records", step, len(d.order.ids), len(order))
		}
	}
	// Two blanked slots a removal, plus squeezes that each pay for
	// themselves out of the removals since the last one.
	if d.SlotVisits() > 8*removals {
		t.Errorf("%d slot visits for %d removals", d.SlotVisits(), removals)
	}
}

func TestDatasetAttributes(t *testing.T) {
	d := buildSample(t)
	attrs := d.Attributes()
	want := map[string]int{"color": 1, "price": 2, "title": 3}
	if len(attrs) != len(want) {
		t.Fatalf("got %d attrs, want %d", len(attrs), len(want))
	}
	for _, ac := range attrs {
		if want[ac.Attr] != ac.Count {
			t.Errorf("attr %s count = %d, want %d", ac.Attr, ac.Count, want[ac.Attr])
		}
	}
}

func TestGroundTruthClusters(t *testing.T) {
	d := buildSample(t)
	gt := d.GroundTruthClusters()
	if len(gt) != 2 {
		t.Fatalf("want 2 clusters, got %d", len(gt))
	}
	// r1 and r3 share e1.
	found := false
	for _, cl := range gt {
		if len(cl) == 2 && cl[0] == "r1" && cl[1] == "r3" {
			found = true
		}
	}
	if !found {
		t.Errorf("expected {r1,r3} cluster, got %v", gt)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	d := buildSample(t)
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d2.NumRecords() != d.NumRecords() || d2.NumSources() != d.NumSources() {
		t.Fatalf("round trip lost data: %d/%d records, %d/%d sources",
			d2.NumRecords(), d.NumRecords(), d2.NumSources(), d.NumSources())
	}
	if got := d2.Record("r1").Get("price"); !got.Equal(Number(799)) {
		t.Errorf("r1 price after round trip = %v", got)
	}
	if d2.Record("r3").EntityID != "e1" {
		t.Error("entity ID lost in round trip")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := buildSample(t)
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d2.NumRecords() != 3 {
		t.Fatalf("want 3 records, got %d", d2.NumRecords())
	}
	if got := d2.Record("r2").Get("price"); !got.Equal(Number(699)) {
		t.Errorf("r2 price = %v", got)
	}
	if d2.Record("r3").Has("price") {
		t.Error("r3 must not gain a price from the empty cell")
	}
}

func TestReadCSVRejectsBadHeader(t *testing.T) {
	_, err := ReadCSV(strings.NewReader("a,b,c\n1,2,3\n"))
	if err == nil {
		t.Error("bad header must be rejected")
	}
}

func TestPairCanonicalisation(t *testing.T) {
	if NewPair("b", "a") != NewPair("a", "b") {
		t.Error("pairs must be order-insensitive")
	}
	p := NewPair("x", "y")
	if p.Other("x") != "y" || p.Other("y") != "x" || p.Other("z") != "" {
		t.Error("Other misbehaves")
	}
}

func TestClusteringNormalizeAndPairs(t *testing.T) {
	c := Clustering{{"b", "a"}, {}, {"c"}}
	n := c.Normalize()
	if len(n) != 2 {
		t.Fatalf("empty cluster should be dropped, got %v", n)
	}
	if n[0][0] != "a" || n[0][1] != "b" {
		t.Errorf("cluster not sorted: %v", n[0])
	}
	pairs := n.Pairs()
	if len(pairs) != 1 || pairs[0] != NewPair("a", "b") {
		t.Errorf("pairs = %v", pairs)
	}
	asg := n.Assignment()
	if asg["a"] != asg["b"] || asg["a"] == asg["c"] {
		t.Error("assignment inconsistent with clusters")
	}
}

func TestClaimSet(t *testing.T) {
	cs := NewClaimSet()
	it := Item{Entity: "e1", Attr: "price"}
	cs.Add(Claim{Item: it, Source: "s1", Value: Number(10)})
	cs.Add(Claim{Item: it, Source: "s2", Value: Number(12)})
	cs.Add(Claim{Item: Item{Entity: "e1", Attr: "color"}, Source: "s1", Value: String("red")})
	cs.Add(Claim{Item: it, Source: "s3", Value: Null()}) // ignored

	if cs.Len() != 3 {
		t.Fatalf("want 3 claims, got %d", cs.Len())
	}
	if cs.NumItems() != 2 {
		t.Fatalf("want 2 items, got %d", cs.NumItems())
	}
	if got := len(cs.ItemClaims(it)); got != 2 {
		t.Errorf("item claims = %d, want 2", got)
	}
	if got := len(cs.SourceClaims("s1")); got != 2 {
		t.Errorf("s1 claims = %d, want 2", got)
	}
	if err := cs.Validate(); err != nil {
		t.Error(err)
	}
	cs.SetTruth(it, Number(10))
	if v, ok := cs.Truth(it); !ok || !v.Equal(Number(10)) {
		t.Error("truth lookup failed")
	}
}

func TestClaimsFromClusters(t *testing.T) {
	d := buildSample(t)
	clusters := Clustering{{"r1", "r3"}, {"r2"}}
	cs := ClaimsFromClusters(d, clusters, []string{"title", "price", "color"})
	// r1 contributes title+price, r3 title+color, r2 title+price: 6 claims.
	if cs.Len() != 6 {
		t.Fatalf("want 6 claims, got %d", cs.Len())
	}
	if err := cs.Validate(); err != nil {
		t.Error(err)
	}
}
