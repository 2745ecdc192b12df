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
// per delete to the size of the record's component, not to the corpus.
//
// Deletion is tombstoning: the dead record leaves the dataset and the
// partition immediately (its component is reclustered), but its posting
// entries stay behind as garbage until Compact rewrites the lists —
// probes skip tombstoned IDs, so match behaviour is identical whether
// or not a compaction has run.
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
	index   map[string][]string // key → record IDs (may contain tombstoned IDs)
	uf      *UnionFind
	sets    [][]string // uf.Sets() until the next Insert or Delete; nil when stale
	n       int
	// comparisons counts pairwise match calls, for the E7 cost metric.
	comparisons int

	// dead maps each tombstoned record ID to the posting keys it still
	// occupies — exactly dedupeKeys(Key(r)) at death, since records are
	// never mutated after insert. Entries leave via Compact or when the
	// ID is re-inserted (the stale slots are exhumed first, so a revived
	// record is only ever probed under its current keys); a linker
	// restored by FromState starts with none.
	dead map[string][]string
	// postRefs counts every posting-list slot (live + dead); deadRefs
	// counts the tombstoned ones. Their ratio is the garbage metric
	// compaction triggers on.
	postRefs int
	deadRefs int
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
		dead:     map[string][]string{},
	}
}

// TitleTokenKey is the default incremental blocking key: the title's
// word set, sorted, for key order is the posting lists' probe order and
// therefore Insert's match order.
func TitleTokenKey(r *data.Record) []string {
	return tokenize.WordSet(r.Get("title").String())
}

// Insert adds a record, links it against its block neighbours and
// returns the IDs of the records it matched. Inserting an ID that is
// currently tombstoned revives it: the stale posting slots from its
// previous life are exhumed first, so the record is only ever probed
// under the keys of the version being inserted.
func (inc *Incremental) Insert(src *data.Source, r *data.Record) ([]string, error) {
	if inc.dataset.Source(src.ID) == nil {
		if err := inc.dataset.AddSource(src); err != nil {
			return nil, err
		}
	}
	if keys, ok := inc.dead[r.ID]; ok {
		inc.exhume(r.ID, keys)
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
		// The stop-token gate counts live entries only, so match
		// decisions do not depend on whether a compaction has already
		// swept this list. The count stops once it is past the gate: a
		// stop-token's list is never read to its end.
		live := len(ids)
		if live > inc.MaxBlock && inc.deadRefs > 0 {
			live = 0
			for _, id := range ids {
				if _, gone := inc.dead[id]; !gone {
					if live++; live > inc.MaxBlock {
						break
					}
				}
			}
		}
		if inc.MaxBlock <= 0 || live <= inc.MaxBlock {
			for _, other := range ids {
				if seen[other] {
					continue
				}
				if inc.deadRefs > 0 {
					if _, gone := inc.dead[other]; gone {
						continue
					}
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
		inc.postRefs++
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
// its posting slots are tombstoned (skipped by probes, reclaimed by
// Compact). Deleting an unknown or already-deleted ID is a no-op
// reporting false — duplicate and early deletes from a dirty upstream
// must not corrupt state.
func (inc *Incremental) Delete(id string) bool {
	r := inc.dataset.Record(id)
	if r == nil {
		return false
	}
	inc.recluster(id)
	keys := dedupeKeys(inc.Key(r))
	inc.dataset.RemoveRecord(id)
	unindexRecord(comparatorOf(inc.Matcher), id)
	inc.n--
	inc.dead[id] = keys
	inc.deadRefs += len(keys)
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

// exhume removes the stale posting slots of a tombstoned ID (first
// occurrence in each of its death keys) ahead of its re-insertion.
func (inc *Incremental) exhume(id string, keys []string) {
	for _, k := range keys {
		ids := inc.index[k]
		for i, other := range ids {
			if other == id {
				inc.index[k] = append(ids[:i], ids[i+1:]...)
				inc.postRefs--
				inc.deadRefs--
				break
			}
		}
		if len(inc.index[k]) == 0 {
			delete(inc.index, k)
		}
	}
	delete(inc.dead, id)
}

// Compact rewrites every posting list dropping tombstoned slots and
// clears the tombstone set — the garbage-collection half of deletion.
// List order of surviving entries is preserved, so probe behaviour
// (and therefore all future match decisions) is unchanged; only the
// encoded state shrinks. It reports how many posting slots, emptied
// keys and tombstones were reclaimed.
func (inc *Incremental) Compact() (slots, keys, tombstones int) {
	if len(inc.dead) == 0 {
		return 0, 0, 0
	}
	for k, ids := range inc.index {
		keep := ids[:0]
		for _, id := range ids {
			if _, gone := inc.dead[id]; gone {
				slots++
			} else {
				keep = append(keep, id)
			}
		}
		if len(keep) == 0 {
			delete(inc.index, k)
			keys++
		} else {
			inc.index[k] = keep
		}
	}
	tombstones = len(inc.dead)
	inc.dead = map[string][]string{}
	inc.postRefs -= slots
	inc.deadRefs = 0
	return slots, keys, tombstones
}

// Tombstones reports how many deleted IDs still occupy posting slots.
func (inc *Incremental) Tombstones() int { return len(inc.dead) }

// GarbageRatio reports the fraction of posting slots owned by
// tombstoned IDs — the metric a compaction trigger thresholds on.
func (inc *Incremental) GarbageRatio() float64 {
	if inc.postRefs == 0 {
		return 0
	}
	return float64(inc.deadRefs) / float64(inc.postRefs)
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

// Comparisons returns the cumulative number of pairwise match calls.
func (inc *Incremental) Comparisons() int { return inc.comparisons }

// Dataset exposes the accumulated records (read-only use).
func (inc *Incremental) Dataset() *data.Dataset { return inc.dataset }

// IncrementalState is the serializable core of an incremental linker:
// its primary data, from which everything else Insert consults is
// derived. Records keep insertion order — the probe order — so the
// posting lists FromState rebuilds from them hold exactly the live
// entries of the original's, in the same order, and a restored linker
// compares exactly the pairs the original would have. The partition is
// stored in Sets' canonical form, so Clusters() of a restored linker is
// byte-identical to the original's regardless of the union-find's
// internal tree shape. Tombstones are not part of the state: a restored
// linker starts compacted.
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
// are the original's with their tombstoned slots compacted away — which
// no probe reads. MaxBlock is restored to the default; override it
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
			inc.postRefs++
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
