package linkage

import (
	"slices"

	"repro/internal/data"
	"repro/internal/similarity"
)

// Matcher decides whether a candidate record pair refers to the same
// entity, returning a score in [0,1] and the boolean decision.
type Matcher interface {
	Match(a, b *data.Record) (score float64, match bool)
}

// IDIndexPreparer is implemented by matchers that can precompute
// per-record comparison features (a similarity.FeatureIndex) from
// record IDs before a batch of pair evaluations, so every record is
// tokenized once instead of once per candidate pair and a packed
// candidate stream never has to materialise pair slices just to warm
// the cache. IDs absent from d are skipped; the build tokenises on up
// to workers goroutines (0 = NumCPU).
type IDIndexPreparer interface {
	PrepareIndexIDs(d *data.Dataset, ids []string, workers int)
}

// RecordIndexer is implemented by matchers that keep per-record
// comparison features (a similarity.FeatureIndex) current as an
// Incremental linker's records come and go, so each record is
// tokenized once, when it is inserted, however often it is compared.
type RecordIndexer interface {
	IndexRecord(r *data.Record)
	UnindexRecord(id string)
}

// PrepareComparatorIndexIDs builds a feature index over the given
// records on up to workers goroutines and attaches it to the
// comparator. It is a no-op when the comparator is nil or its attached
// index already holds every one of the records present in the dataset
// (so repeated batches over a stable corpus reuse the cache; an ID the
// dataset lacks never forces a rebuild). IDs must be distinct. Not
// safe to call concurrently with matching.
func PrepareComparatorIndexIDs(c *similarity.RecordComparator, d *data.Dataset, ids []string, workers int) {
	if c == nil || len(c.Fields()) == 0 || len(ids) == 0 {
		return
	}
	recs := make([]*data.Record, 0, len(ids))
	for _, id := range ids {
		if r := d.Record(id); r != nil {
			recs = append(recs, r)
		}
	}
	if idx := c.Index(); idx != nil && !slices.ContainsFunc(recs, func(r *data.Record) bool { return !idx.Has(r) }) {
		return
	}
	c.AttachIndex(similarity.BuildFeatureIndex(recs, c, nil, workers))
}

// indexRecord adds r to the comparator's attached feature index, if any.
func indexRecord(c *similarity.RecordComparator, r *data.Record) {
	if c != nil && c.Index() != nil {
		c.Index().Add(r)
	}
}

// unindexRecord drops id from the comparator's attached feature index,
// if any.
func unindexRecord(c *similarity.RecordComparator, id string) {
	if c != nil && c.Index() != nil {
		c.Index().Remove(id)
	}
}

// NoIndex hides a matcher's IDIndexPreparer and RecordIndexer
// implementations so matching evaluates it without building or
// maintaining the per-record feature cache — the uncached baseline for
// benchmarks and ablations.
func NoIndex(m Matcher) Matcher { return noIndexMatcher{m: m} }

type noIndexMatcher struct{ m Matcher }

func (n noIndexMatcher) Match(a, b *data.Record) (float64, bool) { return n.m.Match(a, b) }

// ThresholdMatcher wraps a RecordComparator with a decision threshold —
// the simple rule-based matcher.
type ThresholdMatcher struct {
	Comparator *similarity.RecordComparator
	Threshold  float64
}

// Match implements Matcher.
func (m ThresholdMatcher) Match(a, b *data.Record) (float64, bool) {
	s := m.Comparator.Compare(a, b)
	return s, s >= m.Threshold
}

// PrepareIndexIDs implements IDIndexPreparer.
func (m ThresholdMatcher) PrepareIndexIDs(d *data.Dataset, ids []string, workers int) {
	PrepareComparatorIndexIDs(m.Comparator, d, ids, workers)
}

// IndexRecord implements RecordIndexer.
func (m ThresholdMatcher) IndexRecord(r *data.Record) { indexRecord(m.Comparator, r) }

// UnindexRecord implements RecordIndexer.
func (m ThresholdMatcher) UnindexRecord(id string) { unindexRecord(m.Comparator, id) }

// RuleMatcher matches when a hard rule fires: any of the Exact
// attributes agree exactly on non-null normalised values (identifier
// equality), or the weighted comparator exceeds the threshold. It
// mirrors the tutorial's product-domain observation that identifier
// equality is the strongest linkage signal.
type RuleMatcher struct {
	Exact      []string // attributes whose exact equality implies a match
	Comparator *similarity.RecordComparator
	Threshold  float64
}

// identifierHit reports whether any of the exact attributes agrees on
// non-null normalised values.
func identifierHit(exact []string, a, b *data.Record) bool {
	for _, attr := range exact {
		va, vb := a.Get(attr), b.Get(attr)
		if !va.IsNull() && !vb.IsNull() && va.SameKey(vb) {
			return true
		}
	}
	return false
}

// Match implements Matcher.
func (m RuleMatcher) Match(a, b *data.Record) (float64, bool) {
	if identifierHit(m.Exact, a, b) {
		return 1, true
	}
	if m.Comparator == nil {
		return 0, false
	}
	s := m.Comparator.Compare(a, b)
	return s, s >= m.Threshold
}

// PrepareIndexIDs implements IDIndexPreparer.
func (m RuleMatcher) PrepareIndexIDs(d *data.Dataset, ids []string, workers int) {
	PrepareComparatorIndexIDs(m.Comparator, d, ids, workers)
}

// IndexRecord implements RecordIndexer.
func (m RuleMatcher) IndexRecord(r *data.Record) { indexRecord(m.Comparator, r) }

// UnindexRecord implements RecordIndexer.
func (m RuleMatcher) UnindexRecord(id string) { unindexRecord(m.Comparator, id) }

// IdentifierFirst puts RuleMatcher's identifier short-circuit ahead of
// another matcher: a pair agreeing on any Exact attribute matches with
// score 1, every other pair is Matcher's decision.
type IdentifierFirst struct {
	Exact   []string
	Matcher Matcher
}

// Match implements Matcher.
func (m IdentifierFirst) Match(a, b *data.Record) (float64, bool) {
	if identifierHit(m.Exact, a, b) {
		return 1, true
	}
	return m.Matcher.Match(a, b)
}

// PrepareIndexIDs implements IDIndexPreparer when Matcher does.
func (m IdentifierFirst) PrepareIndexIDs(d *data.Dataset, ids []string, workers int) {
	if p, ok := m.Matcher.(IDIndexPreparer); ok {
		p.PrepareIndexIDs(d, ids, workers)
	}
}

// IndexRecord implements RecordIndexer when Matcher does.
func (m IdentifierFirst) IndexRecord(r *data.Record) {
	if ix, ok := m.Matcher.(RecordIndexer); ok {
		ix.IndexRecord(r)
	}
}

// UnindexRecord implements RecordIndexer when Matcher does.
func (m IdentifierFirst) UnindexRecord(id string) {
	if ix, ok := m.Matcher.(RecordIndexer); ok {
		ix.UnindexRecord(id)
	}
}
