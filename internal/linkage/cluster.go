package linkage

import (
	"sort"

	"repro/internal/data"
	"repro/internal/parallel"
)

// Clusterer turns scored match edges over a record universe into a
// clustering (one cluster per believed entity). Records not appearing
// in any edge become singletons.
type Clusterer interface {
	Cluster(ids []string, edges []data.ScoredPair) data.Clustering
}

// ConnectedComponents clusters by transitive closure of match edges —
// maximal recall, precision suffers in dense noisy graphs (one bad edge
// glues two entities together).
type ConnectedComponents struct{}

// clusterChunk is how many edges one task of ConnectedComponents'
// parallel slot resolution takes.
const clusterChunk = 1 << 14

// Cluster implements Clusterer. The forest is made over ids first;
// then NumCPU goroutines resolve the edge endpoints to its slots, chunk
// by chunk, and this goroutine unions the slots in edge order, giving
// an endpoint missing from ids its slot as it comes. The partition does
// not depend on the order of the unions, and Sets is canonical.
func (ConnectedComponents) Cluster(ids []string, edges []data.ScoredPair) data.Clustering {
	uf := newUnionFindOf(ids)
	// slots[2i] and slots[2i+1] are edge i's endpoints, -1 for one
	// missing from ids. Edges come sorted by score and then pair, so a
	// run of edges often shares its A: one memo entry saves its lookups.
	slots := make([]int32, 2*len(edges))
	chunks := (len(edges) + clusterChunk - 1) / clusterChunk
	if err := parallel.ForEach(parallel.Config{}, chunks, func(c int) {
		lookup := func(id string) int32 {
			if s, ok := uf.slot[id]; ok {
				return s
			}
			return -1
		}
		// An empty A before the first lookup keeps lastS = -1, which
		// the union loop resolves as it would a missing endpoint.
		var lastA string
		lastS := int32(-1)
		for i := c * clusterChunk; i < min((c+1)*clusterChunk, len(edges)); i++ {
			e := &edges[i]
			if e.A != lastA {
				lastA, lastS = e.A, lookup(e.A)
			}
			slots[2*i], slots[2*i+1] = lastS, lookup(e.B)
		}
	}); err != nil {
		panic(err)
	}
	for i := range edges {
		a, b := slots[2*i], slots[2*i+1]
		if a < 0 {
			a = uf.intern(edges[i].A)
		}
		if b < 0 {
			b = uf.intern(edges[i].B)
		}
		uf.union(a, b)
	}
	sets := uf.Sets()
	out := make(data.Clustering, len(sets))
	for i, set := range sets {
		out[i] = set
	}
	return out
}

// Center clustering (Haveliwala et al.): process edges in descending
// score order; the first time a node appears it becomes a cluster
// center or joins the center it is connected to. Each node commits to
// exactly one cluster, so a single bad edge can no longer merge two
// entities.
type Center struct{}

// Cluster implements Clusterer.
func (Center) Cluster(ids []string, edges []data.ScoredPair) data.Clustering {
	sorted := sortEdges(edges)
	role := map[string]string{} // node → its center ("" = is itself a center)
	assigned := map[string]bool{}
	for _, e := range sorted {
		aAss, bAss := assigned[e.A], assigned[e.B]
		switch {
		case !aAss && !bAss:
			// A becomes center, B joins it.
			assigned[e.A], assigned[e.B] = true, true
			role[e.A] = ""
			role[e.B] = e.A
		case aAss && !bAss:
			if role[e.A] == "" { // A is a center: B joins
				assigned[e.B] = true
				role[e.B] = e.A
			}
			// A is a satellite: B stays unassigned for a later edge.
		case !aAss && bAss:
			if role[e.B] == "" {
				assigned[e.A] = true
				role[e.A] = e.B
			}
		}
	}
	return buildFromRoles(ids, role, assigned)
}

// MergeCenter is center clustering that additionally merges two centers
// when an edge directly connects them, trading some precision back for
// recall (the merge-center variant).
type MergeCenter struct{}

// Cluster implements Clusterer.
func (MergeCenter) Cluster(ids []string, edges []data.ScoredPair) data.Clustering {
	sorted := sortEdges(edges)
	role := map[string]string{}
	assigned := map[string]bool{}
	uf := NewUnionFind() // merges between centers
	for _, e := range sorted {
		aAss, bAss := assigned[e.A], assigned[e.B]
		switch {
		case !aAss && !bAss:
			assigned[e.A], assigned[e.B] = true, true
			role[e.A] = ""
			role[e.B] = e.A
			uf.Add(e.A)
		case aAss && !bAss:
			if role[e.A] == "" {
				assigned[e.B] = true
				role[e.B] = e.A
			}
		case !aAss && bAss:
			if role[e.B] == "" {
				assigned[e.A] = true
				role[e.A] = e.B
			}
		default:
			// Both assigned: merge their centers if directly linked.
			ca, cb := centerOf(role, e.A), centerOf(role, e.B)
			if ca != cb {
				uf.Union(ca, cb)
			}
		}
	}
	// Rewrite roles through the center merges.
	merged := map[string]string{}
	for id, c := range role {
		center := id
		if c != "" {
			center = c
		}
		merged[id] = uf.Find(center)
	}
	rolesAsCenters := map[string]string{}
	for id, c := range merged {
		if id == c {
			rolesAsCenters[id] = ""
		} else {
			rolesAsCenters[id] = c
		}
	}
	return buildFromRoles(ids, rolesAsCenters, assigned)
}

func centerOf(role map[string]string, id string) string {
	if c := role[id]; c != "" {
		return c
	}
	return id
}

func sortEdges(edges []data.ScoredPair) []data.ScoredPair {
	sorted := append([]data.ScoredPair(nil), edges...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Score != sorted[j].Score {
			return sorted[i].Score > sorted[j].Score
		}
		if sorted[i].A != sorted[j].A {
			return sorted[i].A < sorted[j].A
		}
		return sorted[i].B < sorted[j].B
	})
	return sorted
}

func buildFromRoles(ids []string, role map[string]string, assigned map[string]bool) data.Clustering {
	groups := map[string][]string{}
	for id, center := range role {
		c := id
		if center != "" {
			c = center
		}
		groups[c] = append(groups[c], id)
	}
	var out data.Clustering
	for _, members := range groups {
		out = append(out, members)
	}
	for _, id := range ids {
		if !assigned[id] {
			if _, isCenter := role[id]; !isCenter {
				out = append(out, data.Cluster{id})
			}
		}
	}
	return out.Normalize()
}
