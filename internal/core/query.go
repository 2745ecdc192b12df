package core

import (
	"math"

	"repro/internal/data"
)

// Query layer over a completed pipeline Report: look integrated
// entities up by keyword and read their fused, mediated-schema records
// — the user-facing payoff of the integration. Both entry points
// delegate to a memoized serving Snapshot (see snapshot.go), so
// entities are materialised exactly once per report no matter how many
// queries run.

// Entity is one integrated entity: its cluster, provenance and fused
// values.
type Entity struct {
	// ID is the fusion entity id ("e<i>" over the normalised clusters).
	ID string
	// Records lists the contributing record IDs.
	Records []string
	// Sources lists the distinct contributing source IDs, sorted.
	Sources []string
	// Title is a representative title (the longest contributed one).
	Title string
	// Values holds the fused value per mediated attribute.
	Values map[string]data.Value
	// Confidence per mediated attribute.
	Confidence map[string]float64
}

// Snapshot returns the report's serving snapshot, building it on first
// use and memoizing it for every later call (concurrent callers share
// one build). The snapshot — and the entities it exposes — are
// immutable shared views; mutating the report after the first call has
// no effect on query results.
func (r *Report) Snapshot() (*Snapshot, error) {
	r.snapOnce.Do(func() {
		r.snap, r.snapErr = BuildSnapshot(r)
	})
	return r.snap, r.snapErr
}

// Entities returns every integrated entity from the report in entity
// index order (e0, e1, …, e10, …), not byte-wise ID order. The result is
// the snapshot's shared, immutable entity list — materialised once per
// report, not per call — so callers must treat entities as read-only.
func (r *Report) Entities() ([]*Entity, error) {
	s, err := r.Snapshot()
	if err != nil {
		return nil, err
	}
	return s.Entities(), nil
}

// entityIndex parses a canonical fusion entity ID ("e<i>", no leading
// zeros except "e0" itself) into its index, returning -1 for anything
// else — malformed prefixes, non-digits, leading zeros ("e01" would
// alias "e1") and digit strings that overflow int.
func entityIndex(id string) int {
	if len(id) < 2 || id[0] != 'e' {
		return -1
	}
	if id[1] == '0' && len(id) > 2 {
		return -1
	}
	n := 0
	for i := 1; i < len(id); i++ {
		c := id[i]
		if c < '0' || c > '9' {
			return -1
		}
		d := int(c - '0')
		if n > (math.MaxInt-d)/10 {
			return -1
		}
		n = n*10 + d
	}
	return n
}

// Hit is one query result with its relevance score.
type Hit struct {
	Entity *Entity
	Score  float64
}

// Search ranks integrated entities against a keyword query by blended
// overlap/Jaccard similarity between the query and each entity's title
// plus fused string values, returning up to limit hits with score > 0,
// ties broken by byte-wise Entity.ID ascending (see Snapshot.Search).
// limit 0 applies the default DefaultSearchLimit; negative limits
// return a validation error. Repeated searches share the memoized
// snapshot, so the warm path is an index probe with no per-query
// entity materialisation.
func (r *Report) Search(query string, limit int) ([]Hit, error) {
	s, err := r.Snapshot()
	if err != nil {
		return nil, err
	}
	return s.Search(query, limit)
}
