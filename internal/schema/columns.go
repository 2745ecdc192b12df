package schema

import (
	"context"
	"math"
	"sort"

	"repro/internal/data"
)

// Columns is the interned attribute-column view of one dataset under one
// set of profiles, built once per alignment and read by every phase of
// it: the linkage-evidence scan, transform discovery, normalisation and
// the cached Combined evidence.
//
// The dense-ID contract: the profiles are sorted by (source, attribute)
// and a profiled attribute's ID is its position in that order, so an
// unordered attribute pair is (lo, hi) by ID exactly when it is by
// (source, attribute), and owns cell lo*n+hi of a flat n×n table.
// Attributes that occur in records but have no profile (title, pid, ...)
// get the IDs from n upward; the evidence scan skips them and
// normalisation passes them through. Lookups from outside go through
// the SourceAttr, never through a slice position, so hand-built profiles
// resolve as long as they name an interned attribute.
//
// A Columns is immutable after NewColumns and safe for concurrent reads.
type Columns struct {
	d        *data.Dataset
	profiles []*Profile            // sorted by (source, attr); dense ID = index
	ids      map[SourceAttr]uint32 // every (source, attr) of the dataset or the profiles
	attrs    []SourceAttr          // by dense ID
	recs     []*data.Record        // dataset insertion order
	rows     map[string]int32      // record ID → index into recs
	cells    []cell                // all rows back to back, each sorted by attribute name
	off      []uint32              // row r is cells[off[r]:off[r+1]]

	// Inputs of Combined that depend on one profile or one name pair.
	kind    []data.ValueKind // dominant kind by profiled ID
	name    []uint32         // dense attribute-name index by profiled ID
	names   int              // distinct names
	nameSim []float64        // NameSimilarity by ordered name-index pair; NaN where no profile pair needs it
}

// cell is one field of one record: the attribute's dense ID and the
// payloads the scans compare. Bool and time payloads stay in the record
// (Columns.field); they are rare and only ever compared for equality.
type cell struct {
	attr uint32
	kind uint8 // data.ValueKind
	num  float64
	str  string
}

// NewColumns interns the dataset's attributes against profiles and lays
// every record out as one pre-sorted cell slice. Cancellation is
// observed every few hundred records.
func NewColumns(ctx context.Context, d *data.Dataset, profiles []*Profile) (*Columns, error) {
	c := &Columns{
		d:        d,
		profiles: append([]*Profile(nil), profiles...),
		ids:      make(map[SourceAttr]uint32, len(profiles)),
		recs:     d.Records(),
	}
	sort.SliceStable(c.profiles, func(i, j int) bool {
		a, b := c.profiles[i], c.profiles[j]
		if a.Source != b.Source {
			return a.Source < b.Source
		}
		return a.Attr < b.Attr
	})
	for i, p := range c.profiles {
		c.ids[p.SourceAttr] = uint32(i)
		c.attrs = append(c.attrs, p.SourceAttr)
	}

	fields := 0
	for _, r := range c.recs {
		fields += len(r.Fields())
	}
	c.cells = make([]cell, 0, fields)
	c.off = make([]uint32, 1, len(c.recs)+1)
	c.rows = make(map[string]int32, len(c.recs))
	for row, r := range c.recs {
		if row%512 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		c.rows[r.ID] = int32(row)
		for _, f := range r.Fields() {
			sa := SourceAttr{Source: r.SourceID, Attr: f.Attr}
			id, ok := c.ids[sa]
			if !ok {
				id = uint32(len(c.attrs))
				c.ids[sa] = id
				c.attrs = append(c.attrs, sa)
			}
			v := f.Value
			c.cells = append(c.cells, cell{attr: id, kind: uint8(v.Kind), num: v.Num, str: v.Str})
		}
		c.off = append(c.off, uint32(len(c.cells)))
	}
	c.cacheCombinedInputs()
	return c, nil
}

// cacheCombinedInputs computes each profile's dominant kind once and
// NameSimilarity once per ordered name pair that some cross-source
// profile pair (i < j, the order Align scores in) will ask for: a web's
// attributes share a few dozen names, so this replaces one tokenise-and-
// compare per profile pair by one per name pair.
func (c *Columns) cacheCombinedInputs() {
	n := len(c.profiles)
	c.kind = make([]data.ValueKind, n)
	c.name = make([]uint32, n)
	nameOf := map[string]uint32{}
	for i, p := range c.profiles {
		c.kind[i] = p.DominantKind()
		id, ok := nameOf[p.Attr]
		if !ok {
			id = uint32(len(nameOf))
			nameOf[p.Attr] = id
		}
		c.name[i] = id
	}
	c.names = len(nameOf)
	c.nameSim = make([]float64, c.names*c.names)
	for k := range c.nameSim {
		c.nameSim[k] = math.NaN()
	}
	for i, a := range c.profiles {
		for j := i + 1; j < n; j++ {
			b := c.profiles[j]
			if a.Source == b.Source {
				continue
			}
			if k := int(c.name[i])*c.names + int(c.name[j]); math.IsNaN(c.nameSim[k]) {
				c.nameSim[k] = NameSimilarity(a, b)
			}
		}
	}
}

// row returns one record's cells, which line up one to one with its
// record's fields.
func (c *Columns) row(r int32) []cell { return c.cells[c.off[r]:c.off[r+1]] }

// field returns the full value behind a cell.
func (c *Columns) field(r int32, ce cell) data.Value {
	return c.recs[r].Get(c.attrs[ce.attr].Attr)
}

// clusterRows appends the rows of a cluster's members to buf, skipping
// IDs the dataset does not hold.
func (c *Columns) clusterRows(cl data.Cluster, buf []int32) []int32 {
	for _, id := range cl {
		if r, ok := c.rows[id]; ok {
			buf = append(buf, r)
		}
	}
	return buf
}

// cachedID resolves a profile to its dense ID when the view's cached
// per-profile inputs describe it, i.e. when it is the very profile the
// view was built over (a hand-built twin with the same SourceAttr may
// carry different statistics).
func (c *Columns) cachedID(p *Profile) (int, bool) {
	id, ok := c.ids[p.SourceAttr]
	if !ok || int(id) >= len(c.profiles) || c.profiles[id] != p {
		return 0, false
	}
	return int(id), true
}

// Combined is the package-level Combined read through the view: the
// same score bit for bit, with the dominant kinds and the name
// similarity taken from the tables NewColumns filled. Profiles the view
// was not built over fall back to the plain computation. It is a pure
// read, so it is a valid Aligner.Evidence at any worker count.
func (c *Columns) Combined(a, b *Profile) float64 {
	if a.Source == b.Source {
		return 0
	}
	ia, oka := c.cachedID(a)
	ib, okb := c.cachedID(b)
	if !oka || !okb {
		return Combined(a, b)
	}
	name := c.nameSim[int(c.name[ia])*c.names+int(c.name[ib])]
	if math.IsNaN(name) {
		name = NameSimilarity(a, b)
	}
	return combine(name, valueOverlap(a, b, c.kind[ia], c.kind[ib]), TokenOverlap(a, b))
}
