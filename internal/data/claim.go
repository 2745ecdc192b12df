package data

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
)

// Item identifies a data item in the fusion sense: one attribute of one
// (linked) entity, e.g. "the capacity of battery X".
type Item struct {
	Entity string // entity or cluster identifier
	Attr   string // attribute name (in the aligned/mediated schema)
}

// String renders the item as "entity.attr".
func (it Item) String() string { return it.Entity + "." + it.Attr }

// Claim is a single (item, source, value) observation: source claims
// that item has the given value.
type Claim struct {
	Item   Item
	Source string
	Value  Value
}

// ClaimSet is the claim table every fuser reads. Items, sources and each
// item's values are interned into tables, and a claim is three int32
// columns in insertion order, so claims keep their insertion order within
// each item and within each source — the orders fusers sum in.
type ClaimSet struct {
	cols  Columns
	srcIx map[string]int32 // source → its index in cols.Sources
	ix    *interner        // Add's lookups, built on first use
	truth map[Item]Value   // optional ground truth for evaluation
}

// Columns is the claim table. Its slices belong to the set and must not
// be modified. Every item, source and value has at least one claim.
type Columns struct {
	// Items and Sources are the item and source tables, in first-appearance
	// order.
	Items   []Item
	Sources []string
	// The value table, one entry per distinct spelling of an item's value,
	// in first-appearance order: Values[v] is the spelling and Rank[v] the
	// rank of its Key among the item's keys. Spellings of one key (one
	// instant in two time zones) share a rank; the first claimed is the
	// key's canonical Value.
	Values []Value
	Rank   []int32
	// Item, Src and Val are the claims in insertion order, as indexes into
	// Items, Sources and the value table.
	Item, Src, Val []int32
}

// interner is what Add needs besides the table: the item index, and each
// item's values chained from head[item] through prev[value].
type interner struct {
	items      map[Item]int32
	head, prev []int32
}

// NewClaimSet returns an empty claim set.
func NewClaimSet() *ClaimSet { return &ClaimSet{srcIx: map[string]int32{}, truth: map[Item]Value{}} }

// Add appends a claim. Null values are ignored (a source that says
// nothing about an item makes no claim).
func (cs *ClaimSet) Add(c Claim) {
	if c.Value.IsNull() {
		return
	}
	t, ix := &cs.cols, cs.interner()
	it, ok := ix.items[c.Item]
	if !ok {
		it = int32(len(t.Items))
		ix.items[c.Item] = it
		t.Items, ix.head = append(t.Items, c.Item), append(ix.head, -1)
	}
	v, added := cs.valueOf(&ix.head[it], &ix.prev, c.Value)
	if added {
		cs.rank(ix.head[it], ix.prev, nil)
	}
	t.Item, t.Src, t.Val = append(t.Item, it), append(t.Src, cs.source(c.Source)), append(t.Val, v)
}

// interner returns Add's lookups, building them from the table when the
// set was written by ClaimsFromClusters.
func (cs *ClaimSet) interner() *interner {
	if cs.ix == nil {
		t := &cs.cols
		cs.ix = &interner{items: make(map[Item]int32, len(t.Items)),
			head: make([]int32, len(t.Items)), prev: make([]int32, len(t.Values))}
		for i, it := range t.Items {
			cs.ix.items[it], cs.ix.head[i] = int32(i), -1
		}
		for c, v := range t.Val { // values first appear in index order
			if it := t.Item[c]; cs.ix.head[it] < v {
				cs.ix.prev[v], cs.ix.head[it] = cs.ix.head[it], v
			}
		}
	}
	return cs.ix
}

// source interns a source name.
func (cs *ClaimSet) source(name string) int32 {
	s, ok := cs.srcIx[name]
	if !ok {
		s = int32(len(cs.cols.Sources))
		cs.srcIx[name] = s
		cs.cols.Sources = append(cs.cols.Sources, name)
	}
	return s
}

// valueOf returns the value spelt v among an item's values, chained from
// *head through prev; when there is none, it adds v as the item's new
// head and reports that it did. Same key and == together mean the same
// spelling: == alone takes 0 for -0, the key alone one instant for
// another zone's.
func (cs *ClaimSet) valueOf(head *int32, prev *[]int32, v Value) (int32, bool) {
	t := &cs.cols
	for u := *head; u >= 0; u = (*prev)[u] {
		if t.Values[u] == v && t.Values[u].SameKey(v) {
			return u, false
		}
	}
	u := int32(len(t.Values))
	t.Values, t.Rank = append(t.Values, v), append(t.Rank, 0)
	*prev, *head = append(*prev, *head), u
	return u, true
}

// rank ranks an item's values, chained from head through prev, by key.
// It returns scratch, grown, for the next call.
func (cs *ClaimSet) rank(head int32, prev, scratch []int32) []int32 {
	vs, vals := scratch[:0], cs.cols.Values
	for u := head; u >= 0; u = prev[u] {
		vs = append(vs, u)
	}
	slices.SortFunc(vs, func(a, b int32) int { return compareKeys(vals[a], vals[b]) })
	r := int32(-1)
	for i, u := range vs {
		if i == 0 || !vals[vs[i-1]].SameKey(vals[u]) {
			r++
		}
		cs.cols.Rank[u] = r
	}
	return vs
}

// SetTruth records the ground-truth value of an item (evaluation only).
func (cs *ClaimSet) SetTruth(it Item, v Value) { cs.truth[it] = v }

// Truth returns the ground-truth value of an item and whether one is known.
func (cs *ClaimSet) Truth(it Item) (Value, bool) {
	v, ok := cs.truth[it]
	return v, ok
}

// Len returns the number of claims.
func (cs *ClaimSet) Len() int { return len(cs.cols.Item) }

// NumItems returns the number of distinct data items.
func (cs *ClaimSet) NumItems() int { return len(cs.cols.Items) }

// Items returns the distinct items in first-appearance order.
func (cs *ClaimSet) Items() []Item { return slices.Clone(cs.cols.Items) }

// Sources returns the distinct claiming source IDs, sorted.
func (cs *ClaimSet) Sources() []string {
	out := slices.Clone(cs.cols.Sources)
	slices.Sort(out)
	return out
}

// Columns returns the claim table.
func (cs *ClaimSet) Columns() Columns { return cs.cols }

// All returns every claim in insertion order.
func (cs *ClaimSet) All() []Claim {
	t, out := &cs.cols, make([]Claim, len(cs.cols.Item))
	for c := range out {
		out[c] = Claim{Item: t.Items[t.Item[c]], Source: t.Sources[t.Src[c]], Value: t.Values[t.Val[c]]}
	}
	return out
}

// ItemClaims returns the claims about one item, in insertion order.
func (cs *ClaimSet) ItemClaims(it Item) []Claim {
	return slices.DeleteFunc(cs.All(), func(c Claim) bool { return c.Item != it })
}

// SourceClaims returns the claims made by one source, in insertion order.
func (cs *ClaimSet) SourceClaims(src string) []Claim {
	return slices.DeleteFunc(cs.All(), func(c Claim) bool { return c.Source != src })
}

// ItemView is the claim table item by item, as the online kernel reads
// it: item i's claims sit at positions Start[i] .. Start[i+1]-1 of Src
// and Val, in insertion order; Src indexes Sources, and Val is the rank
// of the claimed value among the item's.
type ItemView struct {
	Sources  []string
	Start    []int
	Src, Val []int32
}

// ByItem derives the item view by a stable counting sort of the claims.
// It also returns, per view position, the claim's insertion position.
func (cs *ClaimSet) ByItem() (ItemView, []int32) {
	t := &cs.cols
	start, order := GroupBy(t.Item, len(t.Items))
	v := ItemView{Sources: t.Sources, Start: start, Src: make([]int32, len(order)), Val: make([]int32, len(order))}
	for p, c := range order {
		v.Src[p], v.Val[p] = t.Src[c], t.Rank[t.Val[c]]
	}
	return v, order
}

// Append appends every item of other, whose Src indexes v.Sources. Both
// views' Start begin with 0, as ByItem's do.
func (v *ItemView) Append(other *ItemView) {
	base := len(v.Src)
	v.Src, v.Val = append(v.Src, other.Src...), append(v.Val, other.Val...)
	for _, end := range other.Start[1:] {
		v.Start = append(v.Start, base+end)
	}
}

// GroupBy is a stable counting sort of positions by key, every key in
// [0, n): key k's positions are order[start[k]:start[k+1]], ascending.
func GroupBy[K int32 | uint32](keys []K, n int) (start []int, order []int32) {
	start = make([]int, n+1)
	for _, k := range keys {
		start[k]++
	}
	for k := 1; k <= n; k++ {
		start[k] += start[k-1]
	}
	order = make([]int32, len(keys))
	for c := len(keys) - 1; c >= 0; c-- {
		start[keys[c]]--
		order[start[keys[c]]] = int32(c)
	}
	return start, order
}

// Validate checks the table's invariants; it is used by tests.
func (cs *ClaimSet) Validate() error {
	t := &cs.cols
	if len(t.Src) != len(t.Item) || len(t.Val) != len(t.Item) || len(t.Rank) != len(t.Values) {
		return fmt.Errorf("data: claim columns of unequal length")
	}
	byItem, owner := make([][]int32, len(t.Items)), make([]int32, len(t.Values)) // value → item + 1
	for c, v := range t.Val {
		if it := t.Item[c]; owner[v] == 0 {
			owner[v], byItem[it] = it+1, append(byItem[it], v)
		} else if owner[v] != it+1 {
			return fmt.Errorf("data: value %d is claimed for two items", v)
		}
	}
	if slices.Contains(owner, 0) {
		return fmt.Errorf("data: a value has no claim")
	}
	for i, vs := range byItem { // ranks are the dense ranks of the keys
		slices.SortFunc(vs, func(a, b int32) int { return cmp.Compare(t.Values[a].Key(), t.Values[b].Key()) })
		r := int32(0)
		for j, v := range vs {
			if j > 0 && t.Values[vs[j-1]].Key() != t.Values[v].Key() {
				r++
			}
			if t.Rank[v] != r {
				return fmt.Errorf("data: item %d's values are not ranked by key", i)
			}
		}
	}
	return nil
}

// ClaimsFromClusters converts linked records into a claim set: each
// cluster of the normalized clustering becomes an entity whose ID is its
// index rendered as "e<i>", and each member, in sorted ID order, claims
// its value of every attribute in attrs, in attrs order (a name repeated
// in attrs is claimed once, at its first place). Each member's cells are
// walked once: a name → index map built per call finds a cell's place in
// attrs, and the member's few hits are sorted by it, so the cost follows
// the claims, not members × attributes. The claims go straight into the
// table: a counting pass sizes it, items are interned through a
// per-cluster attribute table, and a claim's value is found among its
// item's by SameKey, so no key is rendered but to rank an item's values.
func ClaimsFromClusters(d *Dataset, clusters Clustering, attrs []string) *ClaimSet {
	norm := clusters.Normalize()
	index := make(map[string]int32, len(attrs))
	for a := len(attrs) - 1; a >= 0; a-- {
		index[attrs[a]] = int32(a)
	}
	// recs holds the members end to end (nil for an ID d lacks); at[k]
	// is the place in attrs of the k-th of their cells, -1 for none.
	members, cells := 0, 0
	for _, cl := range norm {
		members += len(cl)
	}
	recs := make([]*Record, 0, members)
	for _, cl := range norm {
		for _, id := range cl {
			r := d.Record(id)
			recs = append(recs, r)
			if r != nil {
				cells += len(r.cells)
			}
		}
	}
	at := make([]int32, 0, cells)
	// stamp[a] is 1 + the last cluster with an item for attribute a.
	stamp, item := make([]int, len(attrs)), make([]int32, len(attrs))
	nClaims, nItems := 0, 0
	next := 0
	for ci, cl := range norm {
		for _, r := range recs[next : next+len(cl)] {
			if r == nil {
				continue
			}
			for _, f := range r.cells {
				a, ok := index[f.Attr]
				if !ok {
					at = append(at, -1)
					continue
				}
				at = append(at, a)
				nClaims++
				if stamp[a] != ci+1 {
					stamp[a], nItems = ci+1, nItems+1
				}
			}
		}
		next += len(cl)
	}
	// The entity IDs, rendered end to end into one string.
	names, ends := make([]byte, 0, len(norm)*(1+len(strconv.Itoa(len(norm))))), make([]int, len(norm)+1)
	for ci := range norm {
		names = strconv.AppendInt(append(names, 'e'), int64(ci), 10)
		ends[ci+1] = len(names)
	}
	entities := string(names)

	cs := NewClaimSet()
	t := &cs.cols
	t.Items, t.Values, t.Rank = make([]Item, 0, nItems), make([]Value, 0, nClaims), make([]int32, 0, nClaims)
	t.Item, t.Src, t.Val = make([]int32, 0, nClaims), make([]int32, 0, nClaims), make([]int32, 0, nClaims)
	prev, heads, scratch := make([]int32, 0, nClaims), make([]int32, 0, len(attrs)), []int32(nil)
	// hits are one member's claimed cells: place in attrs, cell index.
	type hit struct{ a, k int32 }
	hits := make([]hit, 0, len(attrs))
	clear(stamp)
	next, cell := 0, 0
	for ci, cl := range norm {
		base := int32(len(t.Items))
		heads = heads[:0] // the cluster's items' value chains
		for _, r := range recs[next : next+len(cl)] {
			if r == nil {
				continue
			}
			hits = hits[:0]
			for k := range r.cells {
				if a := at[cell+k]; a >= 0 {
					hits = append(hits, hit{a, int32(k)})
				}
			}
			cell += len(r.cells)
			if len(hits) == 0 {
				continue
			}
			slices.SortFunc(hits, func(x, y hit) int { return cmp.Compare(x.a, y.a) })
			s := cs.source(r.SourceID)
			for _, h := range hits {
				a := h.a
				if stamp[a] != ci+1 {
					stamp[a], item[a], heads = ci+1, int32(len(t.Items)), append(heads, -1)
					t.Items = append(t.Items, Item{Entity: entities[ends[ci]:ends[ci+1]], Attr: attrs[a]})
				}
				v, _ := cs.valueOf(&heads[item[a]-base], &prev, r.cells[h.k].Value)
				t.Item, t.Src, t.Val = append(t.Item, item[a]), append(t.Src, s), append(t.Val, v)
			}
		}
		next += len(cl)
		for _, h := range heads { // the cluster's items are complete
			scratch = cs.rank(h, prev, scratch)
		}
	}
	return cs
}
