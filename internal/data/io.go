package data

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// jsonDataset is the wire form of a Dataset.
type jsonDataset struct {
	Sources []jsonSource `json:"sources"`
	Records []jsonRecord `json:"records"`
}

type jsonSource struct {
	ID           string   `json:"id"`
	Name         string   `json:"name,omitempty"`
	TrueAccuracy float64  `json:"true_accuracy,omitempty"`
	CopiesFrom   []string `json:"copies_from,omitempty"`
}

type jsonRecord struct {
	ID       string            `json:"id"`
	SourceID string            `json:"source_id"`
	EntityID string            `json:"entity_id,omitempty"`
	Fields   map[string]string `json:"fields"`
}

// WriteJSON serialises the dataset as a single JSON document. Values are
// written in their Parse-able string form.
func (d *Dataset) WriteJSON(w io.Writer) error {
	doc := jsonDataset{}
	for _, s := range d.Sources() {
		doc.Sources = append(doc.Sources, jsonSource{
			ID: s.ID, Name: s.Name, TrueAccuracy: s.TrueAccuracy, CopiesFrom: s.CopiesFrom,
		})
	}
	for _, r := range d.Records() {
		jr := jsonRecord{ID: r.ID, SourceID: r.SourceID, EntityID: r.EntityID,
			Fields: make(map[string]string, len(r.Fields()))}
		for _, f := range r.Fields() {
			jr.Fields[f.Attr] = f.Value.String()
		}
		doc.Records = append(doc.Records, jr)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// ReadJSON parses a dataset previously written by WriteJSON.
func ReadJSON(r io.Reader) (*Dataset, error) {
	var doc jsonDataset
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("data: decoding dataset JSON: %w", err)
	}
	d := NewDataset()
	for _, s := range doc.Sources {
		if err := d.AddSource(&Source{ID: s.ID, Name: s.Name,
			TrueAccuracy: s.TrueAccuracy, CopiesFrom: s.CopiesFrom}); err != nil {
			return nil, err
		}
	}
	for _, jr := range doc.Records {
		rec := NewRecord(jr.ID, jr.SourceID)
		rec.EntityID = jr.EntityID
		for a, raw := range jr.Fields {
			rec.Set(a, Parse(raw))
		}
		if err := d.AddRecord(rec); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// WriteCSV writes the records as a flat CSV table with columns
// record_id, source_id, entity_id followed by the union of attribute
// names in sorted order. Missing values are empty cells.
func (d *Dataset) WriteCSV(w io.Writer) error {
	attrSet := map[string]bool{}
	for _, r := range d.Records() {
		for _, f := range r.Fields() {
			attrSet[f.Attr] = true
		}
	}
	attrs := make([]string, 0, len(attrSet))
	for a := range attrSet {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)

	cw := csv.NewWriter(w)
	header := append([]string{"record_id", "source_id", "entity_id"}, attrs...)
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("data: writing CSV header: %w", err)
	}
	for _, r := range d.Records() {
		row := []string{r.ID, r.SourceID, r.EntityID}
		for _, a := range attrs {
			row = append(row, r.Get(a).String())
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("data: writing CSV row for %s: %w", r.ID, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a table written by WriteCSV. Sources are synthesised
// from the distinct source_id values.
func ReadCSV(r io.Reader) (*Dataset, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("data: reading CSV: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("data: CSV has no header row")
	}
	header := rows[0]
	if len(header) < 3 || header[0] != "record_id" || header[1] != "source_id" || header[2] != "entity_id" {
		return nil, fmt.Errorf("data: CSV header must start with record_id,source_id,entity_id")
	}
	d := NewDataset()
	for _, row := range rows[1:] {
		if len(row) != len(header) {
			return nil, fmt.Errorf("data: CSV row has %d cells, want %d", len(row), len(header))
		}
		srcID := row[1]
		if d.Source(srcID) == nil {
			if err := d.AddSource(&Source{ID: srcID, Name: srcID}); err != nil {
				return nil, err
			}
		}
		rec := NewRecord(row[0], srcID)
		rec.EntityID = row[2]
		for i := 3; i < len(row); i++ {
			rec.Set(header[i], Parse(row[i]))
		}
		if err := d.AddRecord(rec); err != nil {
			return nil, err
		}
	}
	return d, nil
}
