package data

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Record is one source's description of one real-world entity: a bag of
// attribute → value fields plus provenance. EntityID carries the
// generator's ground truth when known and is never consulted by the
// pipeline itself — only by evaluation code.
//
// The fields are one slice of cells sorted by attribute name, one cell
// per name and no null among them, so a one-field record costs its
// header and one 80-byte cell rather than a hash map's first group.
type Record struct {
	ID       string // globally unique record identifier
	SourceID string // owning source
	EntityID string // ground-truth entity id ("" if unknown)
	cells    []Field
}

// Field is one attribute → value cell of a record.
type Field struct {
	Attr  string
	Value Value
}

// NewRecord allocates a record with no fields.
func NewRecord(id, sourceID string) *Record {
	return &Record{ID: id, SourceID: sourceID}
}

// find returns the index of attr's cell, or where it would be inserted,
// and whether it is there.
func (r *Record) find(attr string) (int, bool) {
	lo, hi := 0, len(r.cells)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if r.cells[m].Attr < attr {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(r.cells) && r.cells[lo].Attr == attr
}

// Set stores a field, dropping null values so that "absent" and "null"
// coincide. It returns the record for chaining.
func (r *Record) Set(attr string, v Value) *Record {
	i, ok := r.find(attr)
	switch {
	case v.IsNull():
		if ok {
			r.cells = slices.Delete(r.cells, i, i+1)
		}
	case ok:
		r.cells[i].Value = v
	default:
		r.cells = slices.Insert(r.cells, i, Field{Attr: attr, Value: v})
	}
	return r
}

// Grow reserves room for n more fields, so a builder that knows the
// count sets them without regrowing the slice.
func (r *Record) Grow(n int) { r.cells = slices.Grow(r.cells, n) }

// Get returns the value of attr, or null if absent.
func (r *Record) Get(attr string) Value {
	if i, ok := r.find(attr); ok {
		return r.cells[i].Value
	}
	return Null()
}

// Has reports whether the record carries a non-null value for attr.
func (r *Record) Has(attr string) bool {
	_, ok := r.find(attr)
	return ok
}

// Fields returns the record's cells in attribute-name order. The slice
// is the record's own: callers must not modify it.
func (r *Record) Fields() []Field { return r.cells }

// Attrs returns the record's attribute names in sorted order.
func (r *Record) Attrs() []string {
	attrs := make([]string, len(r.cells))
	for i, f := range r.cells {
		attrs[i] = f.Attr
	}
	return attrs
}

// Clone returns a deep copy of the record.
func (r *Record) Clone() *Record {
	return &Record{ID: r.ID, SourceID: r.SourceID, EntityID: r.EntityID,
		cells: slices.Clone(r.cells)}
}

// String renders the record compactly for debugging.
func (r *Record) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s@%s{", r.ID, r.SourceID)
	for i, f := range r.cells {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%s", f.Attr, f.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// Source describes one data source. TrueAccuracy and CopiesFrom are
// generator ground truth used only by evaluation and by the generator
// itself; integration code must not read them.
type Source struct {
	ID           string
	Name         string
	TrueAccuracy float64  // ground truth; 0 if unknown
	CopiesFrom   []string // ground-truth copying edges (source IDs)
}

// Pair is an unordered pair of record IDs in canonical (A < B) order.
type Pair struct{ A, B string }

// NewPair canonicalises the order of its arguments.
func NewPair(a, b string) Pair {
	if b < a {
		a, b = b, a
	}
	return Pair{A: a, B: b}
}

// Other returns the element of the pair that is not id ("" if id is not
// a member).
func (p Pair) Other(id string) string {
	switch id {
	case p.A:
		return p.B
	case p.B:
		return p.A
	}
	return ""
}

// ScoredPair attaches a match score to a pair.
type ScoredPair struct {
	Pair
	Score float64
}

// Cluster is a set of record IDs believed to describe one entity.
type Cluster []string

// Clustering is a partition of record IDs into clusters.
type Clustering []Cluster

// Normalize sorts members within each cluster and clusters by first
// member, yielding a canonical form for comparison and display. The
// copies share one backing array, capped per cluster.
func (c Clustering) Normalize() Clustering {
	n := 0
	for _, cl := range c {
		n += len(cl)
	}
	out, ids := make(Clustering, 0, len(c)), make([]string, 0, n)
	for _, cl := range c {
		if len(cl) == 0 {
			continue
		}
		ids = append(ids, cl...)
		cp := Cluster(ids[len(ids)-len(cl) : len(ids) : len(ids)])
		sort.Strings(cp)
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// Pairs enumerates every intra-cluster pair in the clustering.
func (c Clustering) Pairs() []Pair {
	var out []Pair
	for _, cl := range c {
		for i := 0; i < len(cl); i++ {
			for j := i + 1; j < len(cl); j++ {
				out = append(out, NewPair(cl[i], cl[j]))
			}
		}
	}
	return out
}

// Assignment inverts the clustering into record-ID → cluster-index form.
func (c Clustering) Assignment() map[string]int {
	m := map[string]int{}
	for i, cl := range c {
		for _, id := range cl {
			m[id] = i
		}
	}
	return m
}
