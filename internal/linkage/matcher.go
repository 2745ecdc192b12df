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

// comparing is implemented by matchers that score through a
// similarity.RecordComparator. The matching loop warms the
// comparator's feature index before scoring and an Incremental linker
// keeps it current as records come and go, so each record is tokenized
// once however often it is compared.
type comparing interface {
	comparator() *similarity.RecordComparator
}

// comparatorOf returns m's comparator, or nil when m scores through
// none (or hides it, as NoIndex does).
func comparatorOf(m Matcher) *similarity.RecordComparator {
	if c, ok := m.(comparing); ok {
		return c.comparator()
	}
	return nil
}

// PrepareComparatorIndex builds a feature index over recs on up to
// workers goroutines and attaches it to the comparator. It is a no-op
// when the comparator is nil or its attached index already holds every
// one of the records (so repeated batches over a stable corpus reuse the
// cache). Nil records are skipped. Not safe to call concurrently with
// matching.
func PrepareComparatorIndex(c *similarity.RecordComparator, recs []*data.Record, workers int) {
	if c == nil || len(c.Fields()) == 0 || len(recs) == 0 {
		return
	}
	if idx := c.Index(); idx != nil && !slices.ContainsFunc(recs, func(r *data.Record) bool { return r != nil && !idx.Has(r) }) {
		return
	}
	c.AttachIndex(similarity.BuildFeatureIndex(recs, c, workers))
}

// indexRecord adds r to the comparator's attached feature index, if any.
func indexRecord(c *similarity.RecordComparator, r *data.Record) {
	if c != nil && c.Index() != nil {
		c.Index().Add(r)
	}
}

// unindexRecord drops r from the comparator's attached feature index,
// if any.
func unindexRecord(c *similarity.RecordComparator, r *data.Record) {
	if c != nil && c.Index() != nil {
		c.Index().Remove(r)
	}
}

// NoIndex hides a matcher's comparator so matching evaluates it without
// building or maintaining the per-record feature cache — the uncached
// baseline for benchmarks and ablations.
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

// comparator implements comparing.
func (m ThresholdMatcher) comparator() *similarity.RecordComparator { return m.Comparator }

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

// comparator implements comparing.
func (m RuleMatcher) comparator() *similarity.RecordComparator { return m.Comparator }

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

// comparator implements comparing when Matcher does.
func (m IdentifierFirst) comparator() *similarity.RecordComparator { return comparatorOf(m.Matcher) }
