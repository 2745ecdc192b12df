// Catalog integration: hand-written product records from three online
// stores with different schemas and units, composed stage by stage with
// the public API — blocking, rule matching, clustering, linkage-aware
// schema alignment, transform discovery and fusion. This is the
// pipeline of the ICDE 2013 tutorial on a human-readable workload.
//
//	go run ./examples/catalog
package main

import (
	"context"
	"fmt"
	"log"

	bdi "repro"
)

// store builds one source's records. Each store has its own attribute
// vocabulary and units — the Variety problem in miniature.
func buildDataset() *bdi.Dataset {
	d := bdi.NewDataset()
	for _, s := range []string{"shopzilla", "pricegrab", "megamart"} {
		if err := d.AddSource(&bdi.Source{ID: s, Name: s}); err != nil {
			log.Fatal(err)
		}
	}
	add := func(id, src, title, pid string, fields map[string]bdi.Value) {
		r := bdi.NewRecord(id, src)
		r.Set("title", bdi.StringValue(title))
		if pid != "" {
			r.Set("pid", bdi.StringValue(pid))
		}
		for a, v := range fields {
			r.Set(a, v)
		}
		if err := d.AddRecord(r); err != nil {
			log.Fatal(err)
		}
	}

	// shopzilla: canonical names, grams.
	add("sz1", "shopzilla", "Nova X200 Mirrorless Camera", "NOVA-X200", map[string]bdi.Value{
		"brand": bdi.StringValue("nova"), "weight": bdi.NumberValue(450),
		"color": bdi.StringValue("black"), "price": bdi.NumberValue(899),
	})
	add("sz2", "shopzilla", "Atlas Soundbar 5.1", "ATL-SB51", map[string]bdi.Value{
		"brand": bdi.StringValue("atlas"), "weight": bdi.NumberValue(2300),
		"color": bdi.StringValue("silver"), "price": bdi.NumberValue(349),
	})
	add("sz3", "shopzilla", "Kestrel Trail Watch 2", "KTW-2", map[string]bdi.Value{
		"brand": bdi.StringValue("kestrel"), "weight": bdi.NumberValue(52),
		"color": bdi.StringValue("blue"), "price": bdi.NumberValue(199),
	})

	// pricegrab: renamed attributes, kilograms, one typo'd title.
	add("pg1", "pricegrab", "nova x200 mirorless camera", "NOVA-X200", map[string]bdi.Value{
		"manufacturer": bdi.StringValue("nova"), "item weight": bdi.NumberValue(0.45),
		"colour": bdi.StringValue("black"), "list price": bdi.NumberValue(929),
	})
	add("pg2", "pricegrab", "atlas 5.1 soundbar", "ATL-SB51", map[string]bdi.Value{
		"manufacturer": bdi.StringValue("atlas"), "item weight": bdi.NumberValue(2.3),
		"colour": bdi.StringValue("silver"), "list price": bdi.NumberValue(355),
	})
	add("pg3", "pricegrab", "kestrel trail watch 2", "KTW-2", map[string]bdi.Value{
		"manufacturer": bdi.StringValue("kestrel"), "item weight": bdi.NumberValue(0.052),
		"colour": bdi.StringValue("blue"), "list price": bdi.NumberValue(189),
	})
	add("pg4", "pricegrab", "orion desk lamp led", "ORI-DL1", map[string]bdi.Value{
		"manufacturer": bdi.StringValue("orion"), "item weight": bdi.NumberValue(0.8),
		"colour": bdi.StringValue("white"), "list price": bdi.NumberValue(49),
	})

	// megamart: no identifiers published, wrong price for the camera.
	add("mm1", "megamart", "Nova X200 Camera (Mirrorless)", "", map[string]bdi.Value{
		"brand": bdi.StringValue("nova"), "weight": bdi.NumberValue(455),
		"color": bdi.StringValue("black"), "price": bdi.NumberValue(1099),
	})
	add("mm2", "megamart", "Atlas Soundbar 5.1 Surround", "", map[string]bdi.Value{
		"brand": bdi.StringValue("atlas"), "weight": bdi.NumberValue(2290),
		"color": bdi.StringValue("silver"), "price": bdi.NumberValue(349),
	})
	return d
}

func main() {
	d := buildDataset()
	records := d.Records()

	// --- Blocking: token blocking on titles plus identifier blocking,
	//     one engine and one deduplicated candidate set.
	eng := bdi.NewBlockingEngine(records, bdi.BlockingOpts{})
	token, pid := eng.Blocks(bdi.TokenBlockingKey("title")), eng.Blocks(bdi.ExactBlockingKey("pid"))
	candidates := eng.Concat(token, pid).CandidateSet()
	if err := eng.Err(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("blocking: %d candidate pairs of %d possible\n",
		candidates.Len(), len(records)*(len(records)-1)/2)

	// --- Matching: identifier equality wins outright; otherwise a
	//     title-similarity threshold.
	matcher := bdi.RuleMatcher{
		Exact:      []string{"pid"},
		Comparator: bdi.UniformComparator(bdi.Jaccard, "title"),
		Threshold:  0.55,
	}
	matched, err := bdi.MatchStream(context.Background(), d, candidates, matcher, 2, nil)
	if err != nil {
		log.Fatal(err)
	}
	var ids []string
	for _, r := range records {
		ids = append(ids, r.ID)
	}
	clusters := bdi.ConnectedComponents{}.Cluster(ids, matched)
	fmt.Printf("linkage: %d matches -> %d product clusters\n", len(matched), len(clusters))
	for _, cl := range clusters {
		if len(cl) > 1 {
			fmt.Printf("  linked: %v\n", cl)
		}
	}

	// --- Schema alignment: the clusters provide instance evidence that
	//     "weight" and "item weight" correspond despite the g-vs-kg
	//     units, and transform discovery recovers the factor.
	profiles := bdi.AttrProfiler{}.Build(d)
	ctx := context.Background()
	cols, err := bdi.NewAttrColumns(ctx, d, profiles)
	if err != nil {
		log.Fatal(err)
	}
	evidence, err := bdi.NewLinkageEvidence(ctx, cols, clusters, 0)
	if err != nil {
		log.Fatal(err)
	}
	ms, err := bdi.SchemaAligner{Evidence: evidence.Blend, Threshold: 0.45}.Align(profiles)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmediated schema:\n%s", ms)
	transforms, err := bdi.DiscoverTransforms(ctx, cols, clusters, ms, 2)
	if err != nil {
		log.Fatal(err)
	}
	for _, t := range transforms {
		fmt.Printf("unit transform: %s -> %s  x%.4g (support %d)\n", t.From, t.To, t.Scale, t.Support)
	}

	// --- Normalise and fuse: conflicting prices are resolved by vote.
	normalized := bdi.NewSchemaNormalizer(ms, transforms).ApplyAll(cols)
	var attrs []string
	for _, ma := range ms.Attrs {
		attrs = append(attrs, ma.Name)
	}
	claims := claimsFrom(normalized, clusters, attrs)
	fuser, err := bdi.BuildFuser("vote")
	if err != nil {
		log.Fatal(err)
	}
	result, err := fuser.Fuse(claims)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nfused catalog:")
	for _, it := range claims.Items() {
		fmt.Printf("  %-22s = %v\n", it, result.Values[it])
	}
}

// claimsFrom converts linked, normalised records into fusion claims.
func claimsFrom(d *bdi.Dataset, clusters bdi.Clustering, attrs []string) *bdi.ClaimSet {
	cs := bdi.NewClaimSet()
	for ci, cl := range clusters.Normalize() {
		for _, rid := range cl {
			r := d.Record(rid)
			for _, a := range attrs {
				if v := r.Get(a); !v.IsNull() {
					cs.Add(bdi.Claim{
						Item:   bdi.Item{Entity: fmt.Sprintf("product-%d", ci), Attr: a},
						Source: r.SourceID,
						Value:  v,
					})
				}
			}
		}
	}
	return cs
}
