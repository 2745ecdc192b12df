package linkage

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/data"
)

func edge(a, b string, s float64) data.ScoredPair {
	return data.ScoredPair{Pair: data.NewPair(a, b), Score: s}
}

func TestConnectedComponents(t *testing.T) {
	ids := []string{"a", "b", "c", "d", "e"}
	edges := []data.ScoredPair{edge("a", "b", 0.9), edge("b", "c", 0.8)}
	got := ConnectedComponents{}.Cluster(ids, edges)
	want := data.Clustering{{"a", "b", "c"}, {"d"}, {"e"}}.Normalize()
	assertClusteringEqual(t, got, want)
}

func TestCenterResistsChaining(t *testing.T) {
	// Chain a-b-c-d with strong ends and a weak middle edge: connected
	// components glues all four; center clustering keeps two clusters.
	ids := []string{"a", "b", "c", "d"}
	edges := []data.ScoredPair{
		edge("a", "b", 0.95),
		edge("c", "d", 0.9),
		edge("b", "c", 0.55), // the spurious bridge
	}
	cc := ConnectedComponents{}.Cluster(ids, edges)
	if len(cc) != 1 {
		t.Fatalf("connected components = %v, want single cluster", cc)
	}
	ct := Center{}.Cluster(ids, edges)
	if len(ct) != 2 {
		t.Fatalf("center clustering = %v, want 2 clusters", ct)
	}
	assertSame(t, ct, "a", "b")
	assertSame(t, ct, "c", "d")
}

func TestCenterSatelliteDoesNotRecruit(t *testing.T) {
	// b joins center a; then edge (b,x) must NOT pull x into a's
	// cluster; x waits and becomes available for a later edge/center.
	ids := []string{"a", "b", "x"}
	edges := []data.ScoredPair{
		edge("a", "b", 0.9),
		edge("b", "x", 0.8),
	}
	got := Center{}.Cluster(ids, edges)
	assertSame(t, got, "a", "b")
	if same(got, "a", "x") {
		t.Errorf("satellite must not recruit: %v", got)
	}
}

func TestMergeCenterMergesLinkedCenters(t *testing.T) {
	// Two centers a and c, satellites b and d; a later direct edge
	// between satellites' centers (a,c) merges the clusters.
	ids := []string{"a", "b", "c", "d"}
	edges := []data.ScoredPair{
		edge("a", "b", 0.95),
		edge("c", "d", 0.9),
		edge("a", "c", 0.85),
	}
	center := Center{}.Cluster(ids, edges)
	if len(center) != 2 {
		t.Fatalf("center = %v, want 2 clusters", center)
	}
	merged := MergeCenter{}.Cluster(ids, edges)
	if len(merged) != 1 {
		t.Fatalf("merge-center = %v, want 1 cluster", merged)
	}
}

func TestCorrelationClustering(t *testing.T) {
	// Dense triangle plus weakly attached node: pivot clustering puts
	// the triangle together; the weak node needs score >= MinScore.
	ids := []string{"a", "b", "c", "z"}
	edges := []data.ScoredPair{
		edge("a", "b", 0.9), edge("b", "c", 0.9), edge("a", "c", 0.9),
		edge("c", "z", 0.2),
	}
	got := CorrelationClustering{MinScore: 0.5}.Cluster(ids, edges)
	assertSame(t, got, "a", "b")
	assertSame(t, got, "b", "c")
	if same(got, "c", "z") {
		t.Errorf("weak edge must be filtered: %v", got)
	}
	loose := CorrelationClustering{MinScore: 0.1}.Cluster(ids, edges)
	if !same(loose, "c", "z") {
		t.Errorf("with low MinScore the weak edge may join: %v", loose)
	}
}

func TestClusterersCoverAllIDs(t *testing.T) {
	ids := []string{"a", "b", "c", "d", "lonely"}
	edges := []data.ScoredPair{edge("a", "b", 0.9), edge("c", "d", 0.8)}
	for name, c := range map[string]Clusterer{
		"cc":     ConnectedComponents{},
		"center": Center{},
		"merge":  MergeCenter{},
		"corr":   CorrelationClustering{},
	} {
		got := c.Cluster(ids, edges)
		seen := map[string]bool{}
		for _, cl := range got {
			for _, id := range cl {
				if seen[id] {
					t.Errorf("%s: id %s in two clusters", name, id)
				}
				seen[id] = true
			}
		}
		for _, id := range ids {
			if !seen[id] {
				t.Errorf("%s: id %s missing from clustering", name, id)
			}
		}
	}
}

// TestClusterersIgnoreEdgeOrderWithNaN pins that every clusterer's
// output depends on its edge set alone, not on the order the edges come
// in, also when some scores are NaN: a seeded 30-ID, 60-edge graph with
// a quarter of its scores NaN, and a sixth of its endpoints outside the
// IDs, clusters the same under 50 shuffles.
func TestClusterersIgnoreEdgeOrderWithNaN(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ids := make([]string, 30)
	for i := range ids {
		ids[i] = fmt.Sprintf("r%02d", i)
	}
	edges := make([]data.ScoredPair, 60)
	for i := range edges {
		a, b := rng.Intn(len(ids)), rng.Intn(len(ids)-1)
		if b >= a {
			b++
		}
		score := float64(rng.Intn(8)) / 8
		if i%4 == 0 {
			score = math.NaN()
		}
		edges[i] = edge(ids[a], ids[b], score)
		if i%6 == 0 {
			edges[i] = edge(ids[a], fmt.Sprintf("x%d", b%5), score)
		}
	}
	for name, c := range map[string]Clusterer{
		"cc": ConnectedComponents{}, "center": Center{},
		"merge": MergeCenter{}, "corr": CorrelationClustering{},
	} {
		want := c.Cluster(ids, edges)
		differ, rng := 0, rand.New(rand.NewSource(2))
		for range 50 {
			shuffled := slices.Clone(edges)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			if got := c.Cluster(ids, shuffled); !reflect.DeepEqual(got, want) {
				differ++
			}
		}
		if differ > 0 {
			t.Errorf("%s: %d of 50 shuffles of the same edges cluster differently", name, differ)
		}
	}
}

func TestClusterersEmptyInput(t *testing.T) {
	for name, c := range map[string]Clusterer{
		"cc": ConnectedComponents{}, "center": Center{},
		"merge": MergeCenter{}, "corr": CorrelationClustering{},
	} {
		if got := c.Cluster(nil, nil); len(got) != 0 {
			t.Errorf("%s: empty input gave %v", name, got)
		}
	}
}

func same(c data.Clustering, a, b string) bool {
	asg := c.Assignment()
	ia, oka := asg[a]
	ib, okb := asg[b]
	return oka && okb && ia == ib
}

func assertSame(t *testing.T, c data.Clustering, a, b string) {
	t.Helper()
	if !same(c, a, b) {
		t.Errorf("%s and %s should share a cluster: %v", a, b, c)
	}
}

func assertClusteringEqual(t *testing.T, got, want data.Clustering) {
	t.Helper()
	g, w := got.Normalize(), want.Normalize()
	if len(g) != len(w) {
		t.Fatalf("got %v, want %v", g, w)
	}
	for i := range g {
		if len(g[i]) != len(w[i]) {
			t.Fatalf("cluster %d: got %v, want %v", i, g[i], w[i])
		}
		for j := range g[i] {
			if g[i][j] != w[i][j] {
				t.Fatalf("cluster %d: got %v, want %v", i, g[i], w[i])
			}
		}
	}
}

// referenceComponents is ConnectedComponents as a plain UnionFind loop:
// every ID added, every edge unioned by its IDs, in order.
func referenceComponents(ids []string, edges []data.ScoredPair) data.Clustering {
	uf := NewUnionFind()
	for _, id := range ids {
		uf.Add(id)
	}
	for _, e := range edges {
		uf.Union(e.A, e.B)
	}
	out := data.Clustering{}
	for _, set := range uf.Sets() {
		out = append(out, set)
	}
	return out
}

// TestConnectedComponentsMatchesReference checks ConnectedComponents
// against referenceComponents on seeded random graphs with repeated ids,
// edge endpoints missing from ids, self-loops and repeated edges, and at
// least three chunks of edges so the parallel slot resolution runs;
// edges come in random order and in the matcher's (score, pair) order,
// whose runs of one A the resolution memoises.
func TestConnectedComponentsMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2000 + rng.Intn(20000)
		id := func() string { return fmt.Sprintf("r%05d", rng.Intn(n)) }
		ids := make([]string, n)
		for i := range ids {
			ids[i] = fmt.Sprintf("r%05d", i)
		}
		for i := 0; i < n/10; i++ { // repeats
			ids = append(ids, id())
		}
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		edges := make([]data.ScoredPair, 3*clusterChunk+rng.Intn(clusterChunk))
		for i := range edges {
			a, b := id(), id()
			switch rng.Intn(20) {
			case 0:
				b = a // self-loop
			case 1:
				a = fmt.Sprintf("x%04d", rng.Intn(500)) // missing from ids
			case 2:
				b = fmt.Sprintf("x%04d", rng.Intn(500))
			case 3:
				if i > 0 {
					edges[i] = edges[rng.Intn(i)] // repeated edge
					continue
				}
			}
			edges[i] = edge(a, b, float64(rng.Intn(5))/4)
		}
		got, want := ConnectedComponents{}.Cluster(ids, edges), referenceComponents(ids, edges)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d, random order: %d clusters, reference %d", seed, len(got), len(want))
		}
		sorted := sortEdges(edges)
		got, want = ConnectedComponents{}.Cluster(ids, sorted), referenceComponents(ids, sorted)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d, sorted: %d clusters, reference %d", seed, len(got), len(want))
		}
	}
	if got := (ConnectedComponents{}).Cluster(nil, []data.ScoredPair{edge("b", "a", 1)}); !reflect.DeepEqual(got, data.Clustering{{"a", "b"}}) {
		t.Errorf("edge over no ids: %v", got)
	}
	// An empty ID heading a chunk matches the memo's initial A.
	ids, edges := []string{"", "a", "b"}, []data.ScoredPair{{Pair: data.Pair{A: "", B: "a"}, Score: 1}}
	if got, want := (ConnectedComponents{}).Cluster(ids, edges), referenceComponents(ids, edges); !reflect.DeepEqual(got, want) {
		t.Errorf("empty ID: %v, reference %v", got, want)
	}
}

// BenchmarkConnectedComponents clusters a tenth of link_scale: 35,000
// IDs in groups of 8 whose every pair is an edge, in the matcher's
// output order.
func BenchmarkConnectedComponents(b *testing.B) {
	const n, group = 35_000, 8
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("s%d-r%d", i%16, i)
	}
	var edges []data.ScoredPair
	for g := 0; g < n; g += group {
		for i := g; i < g+group; i++ {
			for j := i + 1; j < g+group; j++ {
				edges = append(edges, edge(ids[i], ids[j], 1))
			}
		}
	}
	edges = sortEdges(edges)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ConnectedComponents{}.Cluster(ids, edges)
	}
}
