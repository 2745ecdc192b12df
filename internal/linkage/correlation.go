package linkage

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/data"
)

// CorrelationClustering approximates correlation clustering over the
// match graph with the classic randomised-pivot algorithm (Ailon et
// al.), derandomised here by pivoting in a deterministic order:
// repeatedly pick the unclustered node with the highest incident match
// weight, form a cluster from it and all unclustered neighbours whose
// edge score ≥ MinScore, and iterate. This optimises agreement with the
// pairwise evidence rather than transitively closing it.
type CorrelationClustering struct {
	// MinScore filters which edges count as positive evidence. Default
	// 0 (any provided edge is positive).
	MinScore float64
}

// Cluster implements Clusterer.
func (cc CorrelationClustering) Cluster(ids []string, edges []data.ScoredPair) data.Clustering {
	adj := map[string]map[string]float64{}
	weight := map[string]float64{}
	addEdge := func(a, b string, s float64) {
		if adj[a] == nil {
			adj[a] = map[string]float64{}
		}
		adj[a][b] = s
		weight[a] += s
	}
	for _, e := range edges {
		if e.Score < cc.MinScore {
			continue
		}
		addEdge(e.A, e.B, e.Score)
		addEdge(e.B, e.A, e.Score)
	}

	// Pivot order: heaviest node first (cmp.Compare's order, NaN weights
	// last), ties by ID for determinism. Edges may mention nodes not in
	// ids; include them too.
	inOrder := make(map[string]bool, len(ids))
	order := append([]string(nil), ids...)
	for _, id := range ids {
		inOrder[id] = true
	}
	for id := range adj {
		if !inOrder[id] {
			inOrder[id] = true
			order = append(order, id)
		}
	}
	slices.SortFunc(order, func(a, b string) int {
		return cmp.Or(cmp.Compare(weight[b], weight[a]), cmp.Compare(a, b))
	})

	clustered := map[string]bool{}
	var out data.Clustering
	for _, pivot := range order {
		if clustered[pivot] {
			continue
		}
		cluster := data.Cluster{pivot}
		clustered[pivot] = true
		// Join unclustered neighbours, strongest first.
		type nb struct {
			id string
			s  float64
		}
		var nbs []nb
		for n, s := range adj[pivot] {
			if !clustered[n] {
				nbs = append(nbs, nb{n, s})
			}
		}
		sort.Slice(nbs, func(i, j int) bool {
			if nbs[i].s != nbs[j].s {
				return nbs[i].s > nbs[j].s
			}
			return nbs[i].id < nbs[j].id
		})
		for _, n := range nbs {
			cluster = append(cluster, n.id)
			clustered[n.id] = true
		}
		out = append(out, cluster)
	}
	return out.Normalize()
}
