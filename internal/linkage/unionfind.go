// Package linkage implements the record-linkage stage of the pipeline:
// pairwise matchers (rule-based, weighted-similarity and Fellegi–Sunter
// probabilistic with EM training), clustering of the match graph
// (connected components, center, merge-center, correlation clustering)
// and incremental linkage for high-velocity streams.
package linkage

import (
	"slices"
	"strings"
)

// UnionFind is a disjoint-set forest over string IDs with path
// compression and union by rank. Each ID is interned to a dense slot;
// the forest itself is integer arrays indexed by slot. Besides its
// parent link every slot sits on a circular ring through the members of
// its set, so a set can be enumerated — and dissolved — in time
// proportional to its size without reading any other set.
//
// Find, Union and Same add IDs they have not seen, so asking about a
// removed ID brings it back as a singleton. A forest made for a known
// universe (newUnionFindOf) interns it up front; its slot table can then
// be read by many goroutines at once while none writes the forest, which
// is how ConnectedComponents resolves edge endpoints to slots in
// parallel before it unions them on one goroutine.
type UnionFind struct {
	slot   map[string]int32
	ids    []string // slot → ID
	parent []int32  // a root is its own parent; a free slot holds -1
	next   []int32  // ring through the set's members; free slots chain the free list
	rank   []uint8
	free   int32 // head of the free list, -1 when empty
	// visits counts the slots remove and Sets walked, so a test can pin
	// that a retraction's cost follows its component and not the corpus.
	visits int
}

// NewUnionFind returns an empty forest.
func NewUnionFind() *UnionFind {
	return &UnionFind{slot: map[string]int32{}, free: -1}
}

// newUnionFindOf returns a forest of ids as singletons, its tables sized
// for them; a repeated ID is one element.
func newUnionFindOf(ids []string) *UnionFind {
	u := &UnionFind{
		slot:   make(map[string]int32, len(ids)),
		ids:    make([]string, 0, len(ids)),
		parent: make([]int32, 0, len(ids)),
		next:   make([]int32, 0, len(ids)),
		rank:   make([]uint8, 0, len(ids)),
		free:   -1,
	}
	for _, id := range ids {
		u.intern(id)
	}
	return u
}

// Add ensures id exists as a singleton set.
func (u *UnionFind) Add(id string) { u.intern(id) }

// intern returns id's slot, giving an unseen id a singleton one — a
// removed ID's slot when one is free, so the arrays are bounded by the
// peak number of live IDs.
func (u *UnionFind) intern(id string) int32 {
	if s, ok := u.slot[id]; ok {
		return s
	}
	s := u.free
	if s >= 0 {
		u.free = u.next[s]
		u.ids[s], u.parent[s], u.next[s], u.rank[s] = id, s, s, 0
	} else {
		s = int32(len(u.ids))
		u.ids = append(u.ids, id)
		u.parent = append(u.parent, s)
		u.next = append(u.next, s)
		u.rank = append(u.rank, 0)
	}
	u.slot[id] = s
	return s
}

func (u *UnionFind) find(s int32) int32 {
	root := s
	for u.parent[root] != root {
		root = u.parent[root]
	}
	for u.parent[s] != root { // path compression
		u.parent[s], s = root, u.parent[s]
	}
	return root
}

// Find returns the representative of id's set, adding id if unseen.
func (u *UnionFind) Find(id string) string { return u.ids[u.find(u.intern(id))] }

// Union merges the sets of a and b.
func (u *UnionFind) Union(a, b string) { u.union(u.intern(a), u.intern(b)) }

// union merges the sets of slots a and b.
func (u *UnionFind) union(a, b int32) {
	ra, rb := u.find(a), u.find(b)
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
	// Exchanging the successors of one member of each splices two rings
	// into one.
	u.next[ra], u.next[rb] = u.next[rb], u.next[ra]
}

// Same reports whether a and b are in the same set.
func (u *UnionFind) Same(a, b string) bool {
	return u.find(u.intern(a)) == u.find(u.intern(b))
}

// remove deletes id from the forest and dissolves the rest of its set
// into singletons, which it returns sorted; nil when id is unknown or
// was alone. It reads and writes the slots of that one set only.
func (u *UnionFind) remove(id string) []string {
	s, ok := u.slot[id]
	if !ok {
		return nil
	}
	var rest []string
	for m := u.next[s]; m != s; {
		after := u.next[m]
		u.parent[m], u.next[m], u.rank[m] = m, m, 0
		rest = append(rest, u.ids[m])
		m = after
	}
	u.visits += len(rest) + 1
	delete(u.slot, id)
	u.ids[s], u.parent[s], u.next[s] = "", -1, u.free
	u.free = s
	slices.Sort(rest)
	return rest
}

// Sets returns the current partition in canonical form: members sorted
// within each set, sets sorted by their first member. Equal partitions
// return equal values whatever order of unions built them.
func (u *UnionFind) Sets() [][]string {
	u.visits += len(u.parent)
	members := make([]string, 0, len(u.slot)) // every set is a window of this one array
	out := [][]string{}
	for s, p := range u.parent {
		if int(p) != s { // a member below its root, or a free slot
			continue
		}
		from := len(members)
		members = append(members, u.ids[s])
		for m := u.next[s]; int(m) != s; m = u.next[m] {
			members = append(members, u.ids[m])
		}
		set := members[from:len(members):len(members)]
		slices.Sort(set)
		out = append(out, set)
	}
	// Sets are disjoint, so their first members are distinct and the
	// order is total.
	slices.SortFunc(out, func(a, b []string) int { return strings.Compare(a[0], b[0]) })
	return out
}

// Len returns the number of elements tracked.
func (u *UnionFind) Len() int { return len(u.slot) }
