package linkage

import (
	"fmt"
	"slices"

	"repro/internal/data"
	"repro/internal/tokenize"
)

// Incremental maintains a linkage result under a stream of record
// insertions, updates and deletions — the Velocity answer to re-running
// batch linkage on every snapshot. New records are compared only
// against records sharing a blocking key (an inverted index is
// maintained online) and merged into existing clusters via union-find.
// Cost per insert is proportional to the record's block sizes and cost
// per delete to the size of the record's component and of its keys'
// posting lists, not to the corpus.
//
// A deleted record leaves the dataset, the partition (its component is
// reclustered) and its posting lists at once, so the lists always hold
// exactly the live records in insertion order.
//
// A feature index attached to the Matcher's comparator is told of every
// record as it enters (Insert, FromState) and leaves (Delete), so it
// tokenizes each record once. Key sees a record only while that index
// holds it, so a key function may read the record's cached features.
type Incremental struct {
	Key     func(r *data.Record) []string
	Matcher Matcher
	// MaxBlock is the online analogue of block purging: once a key's
	// posting list exceeds MaxBlock live entries the key is treated as a
	// stop-token — new records still join the list (it may matter for
	// other keys' statistics) but no comparisons are generated from it.
	// Rare keys (model numbers, brand+series) carry the recall.
	// Default 64.
	MaxBlock int

	dataset *data.Dataset
	index   map[string][]string // key → live record IDs, in insertion order
	uf      *UnionFind
	sets    [][]string // uf.Sets() until the next Insert or Delete; nil when stale
	n       int
	// comparisons counts pairwise match calls, for the E7 cost metric.
	comparisons int
}

// NewIncremental returns an empty incremental linker over its own
// internal dataset.
func NewIncremental(key func(r *data.Record) []string, m Matcher) *Incremental {
	return &Incremental{
		Key:      key,
		Matcher:  m,
		MaxBlock: 64,
		dataset:  data.NewDataset(),
		index:    map[string][]string{},
		uf:       NewUnionFind(),
	}
}

// TitleTokenKey is the default incremental blocking key: the title's
// word set, sorted, for key order is the posting lists' probe order and
// therefore Insert's match order.
func TitleTokenKey(r *data.Record) []string {
	return tokenize.WordSet(r.Get("title").String())
}

// Insert adds a record, links it against its block neighbours and
// returns the IDs of the records it matched.
func (inc *Incremental) Insert(src *data.Source, r *data.Record) ([]string, error) {
	if inc.dataset.Source(src.ID) == nil {
		if err := inc.dataset.AddSource(src); err != nil {
			return nil, err
		}
	}
	if err := inc.dataset.AddRecord(r); err != nil {
		return nil, fmt.Errorf("linkage: incremental insert: %w", err)
	}
	indexRecord(comparatorOf(inc.Matcher), r)
	inc.uf.Add(r.ID)
	inc.n++
	inc.sets = nil

	seen := map[string]bool{r.ID: true}
	var matched []string
	for _, k := range dedupeKeys(inc.Key(r)) {
		ids := inc.index[k]
		if inc.MaxBlock <= 0 || len(ids) <= inc.MaxBlock {
			for _, other := range ids {
				if seen[other] {
					continue
				}
				seen[other] = true
				inc.comparisons++
				if _, ok := inc.Matcher.Match(r, inc.dataset.Record(other)); ok {
					inc.uf.Union(r.ID, other)
					matched = append(matched, other)
				}
			}
		}
		inc.index[k] = append(ids, r.ID)
	}
	return matched, nil
}

// Upsert inserts r, first retracting any live record with the same ID —
// the update half of a mutable stream. It reports the IDs the new
// version matched and whether an old version was replaced.
func (inc *Incremental) Upsert(src *data.Source, r *data.Record) (matched []string, updated bool, err error) {
	if inc.dataset.Record(r.ID) != nil {
		inc.Delete(r.ID)
		updated = true
	}
	matched, err = inc.Insert(src, r)
	return matched, updated, err
}

// Delete retracts a record: it leaves the dataset immediately, its
// cluster component is deterministically reclustered without it, and
// its slot is cut out of each of its keys' posting lists, the other
// entries keeping their order. Deleting an unknown or already-deleted
// ID is a no-op reporting false — duplicate and early deletes from a
// dirty upstream must not corrupt state.
func (inc *Incremental) Delete(id string) bool {
	r := inc.dataset.Record(id)
	if r == nil {
		return false
	}
	inc.recluster(id)
	for _, k := range dedupeKeys(inc.Key(r)) {
		ids := inc.index[k]
		if i := slices.Index(ids, id); i >= 0 {
			ids = slices.Delete(ids, i, i+1)
		}
		if len(ids) == 0 {
			delete(inc.index, k)
		} else {
			inc.index[k] = ids
		}
	}
	inc.dataset.RemoveRecord(id)
	unindexRecord(comparatorOf(inc.Matcher), r)
	inc.n--
	return true
}

// recluster takes id out of the partition: its component is dissolved
// into singletons and re-linked by exhaustive pairwise matching in
// sorted order, so records that were only transitively connected
// through the deleted record split apart. No other component is read.
// Deterministic: the members come back sorted, so the pair order — and
// with it the comparison count — depends on the component alone.
func (inc *Incremental) recluster(id string) {
	rest := inc.uf.remove(id)
	inc.sets = nil
	for i := 0; i < len(rest); i++ {
		for j := i + 1; j < len(rest); j++ {
			inc.comparisons++
			if _, ok := inc.Matcher.Match(inc.dataset.Record(rest[i]), inc.dataset.Record(rest[j])); ok {
				inc.uf.Union(rest[i], rest[j])
			}
		}
	}
}

// Clusters returns a copy of the current clustering, the caller's own.
func (inc *Incremental) Clusters() data.Clustering {
	sets := inc.Partition()
	flat, out := slices.Concat(sets...), make(data.Clustering, len(sets))
	for i, set := range sets {
		out[i], flat = flat[:len(set):len(set)], flat[len(set):]
	}
	return out
}

// Partition returns the current clustering in canonical form, computed
// once per change and shared: callers must not modify it.
func (inc *Incremental) Partition() [][]string {
	if inc.sets == nil {
		inc.sets = inc.uf.Sets()
	}
	return inc.sets
}

// Len returns the number of inserted records.
func (inc *Incremental) Len() int { return inc.n }

// Postings returns the posting lists: key → the live records carrying
// it, in insertion order, which is the probe order. Shared: callers must
// not modify it.
func (inc *Incremental) Postings() map[string][]string { return inc.index }

// Comparisons returns the cumulative number of pairwise match calls.
func (inc *Incremental) Comparisons() int { return inc.comparisons }

// Dataset exposes the accumulated records (read-only use).
func (inc *Incremental) Dataset() *data.Dataset { return inc.dataset }

// IncrementalState is the serializable core of an incremental linker:
// its primary data, from which everything else Insert consults is
// derived. Records keep insertion order — the probe order — so the
// posting lists FromState rebuilds from them equal the original's, and
// a restored linker
// compares exactly the pairs the original would have. The partition is
// stored in Sets' canonical form, so Clusters() of a restored linker is
// byte-identical to the original's regardless of the union-find's
// internal tree shape.
type IncrementalState struct {
	Sources     []*data.Source
	Records     []*data.Record // insertion order, live records only
	Partition   [][]string     // canonical (Sets) form, every live record once
	Comparisons int
}

// State snapshots the linker. The returned state shares with the linker
// the records and sources (never mutated after Insert) and the
// partition (replaced, never changed, by later calls).
func (inc *Incremental) State() *IncrementalState {
	return &IncrementalState{
		Sources:     inc.dataset.Sources(),
		Records:     inc.dataset.Records(),
		Partition:   inc.Partition(),
		Comparisons: inc.comparisons,
	}
}

// FromState rebuilds a linker equivalent to the one State captured,
// under the given key function and matcher (function values can't be
// serialized; the caller re-supplies the configuration the state was
// built under — a different key or matcher silently changes future
// linkage decisions). Each record is appended to its posting lists in
// record order, the append Insert makes without the probe, so the lists
// are the original's. MaxBlock is restored to the default; override it
// after construction if the original differed.
func FromState(st *IncrementalState, key func(r *data.Record) []string, m Matcher) (*Incremental, error) {
	inc := NewIncremental(key, m)
	c := comparatorOf(m)
	for _, s := range st.Sources {
		if err := inc.dataset.AddSource(s); err != nil {
			return nil, fmt.Errorf("linkage: restore source: %w", err)
		}
	}
	for _, r := range st.Records {
		if err := inc.dataset.AddRecord(r); err != nil {
			return nil, fmt.Errorf("linkage: restore record: %w", err)
		}
		indexRecord(c, r)
		inc.uf.Add(r.ID)
		inc.n++
		for _, k := range dedupeKeys(key(r)) {
			inc.index[k] = append(inc.index[k], r.ID)
		}
	}
	// A partition member that is not a restored record would reach
	// Matcher.Match as a nil record on a later recluster, and a record
	// the partition leaves out would load as a silent singleton; Sets
	// places every record exactly once, so a state that does not is
	// refused here.
	placed := make(map[string]bool, len(st.Records))
	for _, set := range st.Partition {
		for _, m := range set {
			if inc.dataset.Record(m) == nil {
				return nil, fmt.Errorf("linkage: restore partition: member %q is not a record", m)
			}
			if placed[m] {
				return nil, fmt.Errorf("linkage: restore partition: %q is listed twice", m)
			}
			placed[m] = true
			inc.uf.Union(set[0], m)
		}
	}
	for _, r := range st.Records {
		if !placed[r.ID] {
			return nil, fmt.Errorf("linkage: restore partition: record %q is in no set", r.ID)
		}
	}
	inc.comparisons = st.Comparisons
	return inc, nil
}

func dedupeKeys(keys []string) []string {
	seen := map[string]bool{}
	out := keys[:0:0]
	for _, k := range keys {
		if k == "" || seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, k)
	}
	return out
}
