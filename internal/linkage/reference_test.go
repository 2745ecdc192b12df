package linkage

// The parent commit's forest and incremental linker, bodies unchanged
// (only renamed with a ref prefix): a map[string]string forest whose
// Sets sorts every ID, a recluster that rebuilds the whole partition to
// split one component, an Insert that copies each posting list it
// probes, and a Delete that leaves its posting slots behind as
// tombstones until Compact sweeps them. They are the oracle the dense
// forest, the component-local retraction and the unlinking delete are
// compared against, op by op, in oracle_test.go.

import (
	"fmt"
	"sort"

	"repro/internal/data"
)

type refUnionFind struct {
	parent map[string]string
	rank   map[string]int
}

func newRefUnionFind() *refUnionFind {
	return &refUnionFind{parent: map[string]string{}, rank: map[string]int{}}
}

func (u *refUnionFind) Add(id string) {
	if _, ok := u.parent[id]; !ok {
		u.parent[id] = id
	}
}

func (u *refUnionFind) Find(id string) string {
	u.Add(id)
	root := id
	for u.parent[root] != root {
		root = u.parent[root]
	}
	for u.parent[id] != root { // path compression
		u.parent[id], id = root, u.parent[id]
	}
	return root
}

func (u *refUnionFind) Union(a, b string) {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
}

// Sets returns the partition with members sorted and sets ordered by
// their root — an artifact of union order, which is why every caller
// sorted again.
func (u *refUnionFind) Sets() [][]string {
	groups := map[string][]string{}
	ids := make([]string, 0, len(u.parent))
	for id := range u.parent {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		r := u.Find(id)
		groups[r] = append(groups[r], id)
	}
	roots := make([]string, 0, len(groups))
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Strings(roots)
	out := make([][]string, 0, len(groups))
	for _, r := range roots {
		out = append(out, groups[r])
	}
	return out
}

type refIncremental struct {
	Key      func(r *data.Record) []string
	Matcher  Matcher
	MaxBlock int

	dataset     *data.Dataset
	index       map[string][]string
	uf          *refUnionFind
	n           int
	comparisons int
	dead        map[string][]string
	postRefs    int
	deadRefs    int
}

func newRefIncremental(key func(r *data.Record) []string, m Matcher) *refIncremental {
	return &refIncremental{
		Key:      key,
		Matcher:  m,
		MaxBlock: 64,
		dataset:  data.NewDataset(),
		index:    map[string][]string{},
		uf:       newRefUnionFind(),
		dead:     map[string][]string{},
	}
}

func (inc *refIncremental) Insert(src *data.Source, r *data.Record) ([]string, error) {
	if inc.dataset.Source(src.ID) == nil {
		if err := inc.dataset.AddSource(src); err != nil {
			return nil, err
		}
	}
	if keys, ok := inc.dead[r.ID]; ok {
		inc.exhume(r.ID, keys)
	}
	if err := inc.dataset.AddRecord(r); err != nil {
		return nil, fmt.Errorf("linkage: incremental insert: %w", err)
	}
	inc.uf.Add(r.ID)
	inc.n++

	seen := map[string]bool{r.ID: true}
	var matched []string
	for _, k := range dedupeKeys(inc.Key(r)) {
		ids := inc.index[k]
		live := ids
		if inc.deadRefs > 0 {
			live = make([]string, 0, len(ids))
			for _, id := range ids {
				if _, gone := inc.dead[id]; !gone {
					live = append(live, id)
				}
			}
		}
		if inc.MaxBlock <= 0 || len(live) <= inc.MaxBlock {
			for _, other := range live {
				if seen[other] {
					continue
				}
				seen[other] = true
				inc.comparisons++
				if _, ok := inc.Matcher.Match(r, inc.dataset.Record(other)); ok {
					inc.uf.Union(r.ID, other)
					matched = append(matched, other)
				}
			}
		}
		inc.index[k] = append(ids, r.ID)
		inc.postRefs++
	}
	return matched, nil
}

func (inc *refIncremental) Upsert(src *data.Source, r *data.Record) (matched []string, updated bool, err error) {
	if inc.dataset.Record(r.ID) != nil {
		inc.Delete(r.ID)
		updated = true
	}
	matched, err = inc.Insert(src, r)
	return matched, updated, err
}

func (inc *refIncremental) Delete(id string) bool {
	r := inc.dataset.Record(id)
	if r == nil {
		return false
	}
	inc.recluster(id)
	keys := dedupeKeys(inc.Key(r))
	inc.dataset.RemoveRecord(id)
	inc.n--
	inc.dead[id] = keys
	inc.deadRefs += len(keys)
	return true
}

// recluster rebuilds the union-find partition without id: every other
// component carries over verbatim; the members of id's component are
// re-linked by exhaustive pairwise matching in sorted order.
func (inc *refIncremental) recluster(id string) {
	rebuilt := newRefUnionFind()
	for _, set := range inc.uf.Sets() {
		idx := -1
		for i, m := range set {
			if m == id {
				idx = i
				break
			}
		}
		if idx < 0 {
			rebuilt.Add(set[0])
			for i := 1; i < len(set); i++ {
				rebuilt.Union(set[0], set[i])
			}
			continue
		}
		rest := make([]string, 0, len(set)-1)
		rest = append(rest, set[:idx]...)
		rest = append(rest, set[idx+1:]...)
		for _, m := range rest {
			rebuilt.Add(m)
		}
		for i := 0; i < len(rest); i++ {
			for j := i + 1; j < len(rest); j++ {
				inc.comparisons++
				if _, ok := inc.Matcher.Match(inc.dataset.Record(rest[i]), inc.dataset.Record(rest[j])); ok {
					rebuilt.Union(rest[i], rest[j])
				}
			}
		}
	}
	inc.uf = rebuilt
}

func (inc *refIncremental) exhume(id string, keys []string) {
	for _, k := range keys {
		ids := inc.index[k]
		for i, other := range ids {
			if other == id {
				inc.index[k] = append(ids[:i], ids[i+1:]...)
				inc.postRefs--
				inc.deadRefs--
				break
			}
		}
		if len(inc.index[k]) == 0 {
			delete(inc.index, k)
		}
	}
	delete(inc.dead, id)
}

func (inc *refIncremental) Compact() (slots, keys, tombstones int) {
	if len(inc.dead) == 0 {
		return 0, 0, 0
	}
	for k, ids := range inc.index {
		keep := ids[:0]
		for _, id := range ids {
			if _, gone := inc.dead[id]; gone {
				slots++
			} else {
				keep = append(keep, id)
			}
		}
		if len(keep) == 0 {
			delete(inc.index, k)
			keys++
		} else {
			inc.index[k] = keep
		}
	}
	tombstones = len(inc.dead)
	inc.dead = map[string][]string{}
	inc.postRefs -= slots
	inc.deadRefs = 0
	return slots, keys, tombstones
}

func (inc *refIncremental) Tombstones() int { return len(inc.dead) }

func (inc *refIncremental) Clusters() data.Clustering {
	var out data.Clustering
	for _, set := range inc.uf.Sets() {
		out = append(out, set)
	}
	return out.Normalize()
}

func (inc *refIncremental) Len() int { return inc.n }

func (inc *refIncremental) Comparisons() int { return inc.comparisons }

func (inc *refIncremental) State() *IncrementalState {
	partition := inc.uf.Sets()
	sort.Slice(partition, func(i, j int) bool { return partition[i][0] < partition[j][0] })
	return &IncrementalState{
		Sources:     inc.dataset.Sources(),
		Records:     inc.dataset.Records(),
		Partition:   partition,
		Comparisons: inc.comparisons,
	}
}
