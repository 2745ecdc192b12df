package linkage

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/data"
)

// ErrNoMatcher reports a Swoosh configured without a matcher. It is a
// wrapped sentinel: errors.Is(err, ErrNoMatcher) identifies the
// misconfiguration through the facade.
var ErrNoMatcher = errors.New("linkage: matcher is nil")

// Swoosh implements R-Swoosh generic entity resolution (Benjelloun et
// al., surveyed by the tutorial's linkage discussion): records are
// resolved by alternately *matching* and *merging* — a merged record
// carries the union of its constituents' evidence and can match records
// neither constituent matched alone. The algorithm maintains a resolved
// set R; each record from the input is compared against R, merged with
// the first match (restarting comparison with the merged record), or
// added to R when nothing matches.
//
// Match/Merge must satisfy the ICAR properties (idempotence,
// commutativity, associativity, representativity) for order-independent
// results; the provided UnionMerge does.
type Swoosh struct {
	Matcher Matcher
	// Merge combines two records into one. Default UnionMerge.
	Merge func(a, b *data.Record) *data.Record
}

// UnionMerge merges b into a copy of a: multi-valued union is
// approximated by keeping a's value and adopting b's values for
// attributes a lacks (evidence accumulation without conflict
// resolution, which is fusion's job downstream).
func UnionMerge(a, b *data.Record) *data.Record {
	out := a.Clone()
	for _, f := range b.Fields() {
		if !out.Has(f.Attr) {
			out.Set(f.Attr, f.Value)
		}
	}
	return out
}

// resolved pairs a merged record with the input record IDs it covers.
type resolved struct {
	rec *data.Record
	ids []string
}

// Resolve runs R-Swoosh over the records and returns the clustering of
// input record IDs plus the merged representative records (one per
// cluster, with synthetic IDs "merged-<i>").
func (s Swoosh) Resolve(records []*data.Record) (data.Clustering, []*data.Record, error) {
	if s.Matcher == nil {
		return nil, nil, fmt.Errorf("linkage: swoosh requires a matcher: %w", ErrNoMatcher)
	}
	merge := s.Merge
	if merge == nil {
		merge = UnionMerge
	}

	var r []*resolved
	queue := make([]*resolved, 0, len(records))
	for _, rec := range records {
		queue = append(queue, &resolved{rec: rec.Clone(), ids: []string{rec.ID}})
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		matchedIdx := -1
		for i, other := range r {
			if _, ok := s.Matcher.Match(cur.rec, other.rec); ok {
				matchedIdx = i
				break
			}
		}
		if matchedIdx < 0 {
			r = append(r, cur)
			continue
		}
		// Merge and re-queue: the merged record may now match further
		// resolved records (the "snowball" that gives Swoosh its power).
		other := r[matchedIdx]
		r = append(r[:matchedIdx], r[matchedIdx+1:]...)
		merged := &resolved{
			rec: merge(other.rec, cur.rec),
			ids: append(append([]string(nil), other.ids...), cur.ids...),
		}
		queue = append(queue, merged)
	}

	var clusters data.Clustering
	var reps []*data.Record
	// Deterministic output order.
	sort.Slice(r, func(i, j int) bool {
		return minID(r[i].ids) < minID(r[j].ids)
	})
	for i, res := range r {
		ids := append([]string(nil), res.ids...)
		sort.Strings(ids)
		clusters = append(clusters, ids)
		rep := res.rec.Clone()
		rep.ID = fmt.Sprintf("merged-%d", i)
		reps = append(reps, rep)
	}
	return clusters.Normalize(), reps, nil
}

func minID(ids []string) string {
	m := ids[0]
	for _, id := range ids[1:] {
		if id < m {
			m = id
		}
	}
	return m
}
