package data

import (
	"fmt"
	"sort"
)

// Dataset is the unit of work for the pipeline: a set of sources and the
// records they contribute, with fast lookup indexes. A Dataset is built
// once and treated as immutable by pipeline stages; incremental
// operation appends via AddRecord/AddSource and retracts via
// RemoveRecord.
type Dataset struct {
	sources map[string]*Source
	records map[string]recordEntry
	bySrc   map[string]*idList // source ID → its record IDs
	order   idList             // every record ID
	// visits counts the list slots RemoveRecord read or wrote, squeezes
	// included (see SlotVisits).
	visits int
}

// recordEntry is a record with its slots in the two insertion-order
// lists, so removing it finds them without a scan.
type recordEntry struct {
	rec       *Record
	at, srcAt int32 // positions in order and in bySrc[rec.SourceID]
}

// idList is a list of record IDs in insertion order. A removed ID's
// slot is blanked ("" is no record's ID) rather than closed up, and the
// blanks are squeezed out once they outnumber the IDs — so a removal
// costs O(1) amortised and the order of the survivors never changes.
type idList struct {
	ids    []string
	blanks int
}

// NewDataset returns an empty dataset.
func NewDataset() *Dataset {
	return &Dataset{
		sources: map[string]*Source{},
		records: map[string]recordEntry{},
		bySrc:   map[string]*idList{},
	}
}

// AddSource registers a source. Re-adding an existing ID replaces its
// metadata but keeps its records.
func (d *Dataset) AddSource(s *Source) error {
	if s == nil || s.ID == "" {
		return fmt.Errorf("data: source must have a non-empty ID")
	}
	d.sources[s.ID] = s
	return nil
}

// AddRecord inserts a record. The record's source must already exist and
// the record ID must be fresh.
func (d *Dataset) AddRecord(r *Record) error {
	if r == nil || r.ID == "" {
		return fmt.Errorf("data: record must have a non-empty ID")
	}
	if _, ok := d.sources[r.SourceID]; !ok {
		return fmt.Errorf("data: record %q references unknown source %q", r.ID, r.SourceID)
	}
	if _, dup := d.records[r.ID]; dup {
		return fmt.Errorf("data: duplicate record ID %q", r.ID)
	}
	src := d.bySrc[r.SourceID]
	if src == nil {
		src = &idList{}
		d.bySrc[r.SourceID] = src
	}
	d.records[r.ID] = recordEntry{rec: r, at: int32(len(d.order.ids)), srcAt: int32(len(src.ids))}
	src.ids = append(src.ids, r.ID)
	d.order.ids = append(d.order.ids, r.ID)
	return nil
}

// RemoveRecord deletes a record by ID; it reports whether it was present.
func (d *Dataset) RemoveRecord(id string) bool {
	e, ok := d.records[id]
	if !ok {
		return false
	}
	delete(d.records, id)
	d.blank(&d.order, e.at, func(e *recordEntry, at int32) { e.at = at })
	d.blank(d.bySrc[e.rec.SourceID], e.srcAt, func(e *recordEntry, at int32) { e.srcAt = at })
	return true
}

// blank empties slot at of l. Once blanks outnumber IDs the list is
// squeezed in place and every survivor's new slot recorded through set.
func (d *Dataset) blank(l *idList, at int32, set func(*recordEntry, int32)) {
	l.ids[at] = ""
	l.blanks++
	d.visits++
	if 2*l.blanks <= len(l.ids) {
		return
	}
	d.visits += len(l.ids)
	kept := l.ids[:0]
	for _, id := range l.ids {
		if id == "" {
			continue
		}
		e := d.records[id]
		set(&e, int32(len(kept)))
		d.records[id] = e
		kept = append(kept, id)
	}
	clear(l.ids[len(kept):]) // let the squeezed-out tail's strings go
	l.ids, l.blanks = kept, 0
}

// SlotVisits reports how many insertion-order list slots RemoveRecord
// has read or written so far — a cost counter for tests pinning that a
// removal does not scan the corpus.
func (d *Dataset) SlotVisits() int { return d.visits }

// each calls f on every listed record in insertion order.
func (d *Dataset) each(l *idList, f func(*Record)) {
	for _, id := range l.ids {
		if id != "" {
			f(d.records[id].rec)
		}
	}
}

// Source returns the source with the given ID, or nil.
func (d *Dataset) Source(id string) *Source { return d.sources[id] }

// Record returns the record with the given ID, or nil.
func (d *Dataset) Record(id string) *Record { return d.records[id].rec }

// NumSources returns the number of registered sources.
func (d *Dataset) NumSources() int { return len(d.sources) }

// NumRecords returns the number of records.
func (d *Dataset) NumRecords() int { return len(d.records) }

// Sources returns all sources sorted by ID.
func (d *Dataset) Sources() []*Source {
	out := make([]*Source, 0, len(d.sources))
	for _, s := range d.sources {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Records returns all records in insertion order.
func (d *Dataset) Records() []*Record {
	out := make([]*Record, 0, len(d.records))
	d.each(&d.order, func(r *Record) { out = append(out, r) })
	return out
}

// SourceRecords returns the records of one source in insertion order.
func (d *Dataset) SourceRecords(sourceID string) []*Record {
	l := d.bySrc[sourceID]
	if l == nil {
		return []*Record{}
	}
	out := make([]*Record, 0, len(l.ids)-l.blanks)
	d.each(l, func(r *Record) { out = append(out, r) })
	return out
}

// Attributes returns every attribute name appearing in any record,
// sorted, with its occurrence count.
func (d *Dataset) Attributes() []AttrCount {
	counts := map[string]int{}
	d.each(&d.order, func(r *Record) {
		for _, f := range r.Fields() {
			counts[f.Attr]++
		}
	})
	out := make([]AttrCount, 0, len(counts))
	for a, n := range counts {
		out = append(out, AttrCount{Attr: a, Count: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Attr < out[j].Attr })
	return out
}

// AttrCount pairs an attribute name with its record-occurrence count.
type AttrCount struct {
	Attr  string
	Count int
}

// GroundTruthClusters groups record IDs by ground-truth EntityID.
// Records with empty EntityID are skipped. Used only by evaluation.
func (d *Dataset) GroundTruthClusters() Clustering {
	byEnt := map[string][]string{}
	d.each(&d.order, func(r *Record) {
		if r.EntityID != "" {
			byEnt[r.EntityID] = append(byEnt[r.EntityID], r.ID)
		}
	})
	out := make(Clustering, 0, len(byEnt))
	for _, ids := range byEnt {
		out = append(out, ids)
	}
	return out.Normalize()
}

// Merge copies every source and record of other into d. Record-ID
// collisions are an error.
func (d *Dataset) Merge(other *Dataset) error {
	for _, s := range other.Sources() {
		if err := d.AddSource(s); err != nil {
			return err
		}
	}
	for _, r := range other.Records() {
		if err := d.AddRecord(r); err != nil {
			return err
		}
	}
	return nil
}
