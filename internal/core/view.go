package core

import (
	"context"
	"slices"
	"sort"
	"strconv"
	"time"

	"repro/internal/data"
	"repro/internal/fusion"
	"repro/internal/obs"
	"repro/internal/tokenize"
)

// Cluster-local publish. Nothing a cluster contributes to a published
// view depends on its position or on any other cluster, except its
// entity number and the global source weights — so the Stream keeps,
// per live cluster, a clusterView holding everything else, and a publish
// reads records only for the clusters that changed since the last one.
// What stays proportional to the corpus is one validation pass over the
// partition, the per-item fuse (the weights move with every publish) and
// counting the index's postings out of the docs' cached token IDs.
//
// The views are derived state: they are never persisted, a restored
// stream starts without any, and building with none cached (NewStream,
// LoadStream) is the full build through this same code.

// clusterView is one cluster's position-independent share of a publish.
type clusterView struct {
	// recs are the member records in the partition's canonical (sorted
	// ID) order. The view is current while the cluster consists of
	// exactly these: records are never mutated after insert — an upsert
	// installs a new pointer — so nothing else can invalidate it.
	recs []*data.Record

	// The entity header, shared by every snapshot published from the view.
	records []string     // member IDs
	sources []string     // their distinct sources, sorted
	title   string       // the longest member title
	named   *data.Record // the member whose title it is, nil for none

	// The cluster's fragment of the claim table, item by item: what
	// data.ClaimsFromClusters writes for the cluster alone over its
	// members' attributes, seen through ClaimSet.ByItem, with items.Src
	// holding Stream source IDs. Item j is attribute attrs[j] of the
	// entity. rep is parallel to the claims: the index in recs of the
	// first member claiming this item with this very Value, so two claims
	// spell their value alike iff their reps are equal.
	attrs []string
	items data.ItemView
	rep   []int32

	// doc is the entity's index entry under the fused values it was built
	// for: winner[j] is the rep of the claim that spelled item j's, -1
	// for none. It is rebuilt, never changed, when a winner moves.
	winner []int32
	doc    *entityDoc
}

// current reports whether the cluster cl still consists of the view's
// records.
func (v *clusterView) current(d *data.Dataset, cl data.Cluster) bool {
	if len(cl) != len(v.recs) {
		return false
	}
	for i, id := range cl {
		if d.Record(id) != v.recs[i] {
			return false
		}
	}
	return true
}

// newClusterView reads a cluster's records into a view.
func (s *Stream) newClusterView(d *data.Dataset, cl data.Cluster, recs []*data.Record) *clusterView {
	v := &clusterView{recs: recs, records: make([]string, len(recs))}
	cells := 0
	for m, r := range recs {
		v.records[m] = r.ID
		if !slices.Contains(v.sources, r.SourceID) {
			v.sources = append(v.sources, r.SourceID)
		}
		if t := r.Get("title"); !t.IsNull() && len(t.Str) > len(v.title) {
			v.title, v.named = t.Str, r
		}
		cells += len(r.Fields())
	}
	sort.Strings(v.sources)
	// The view's attributes are every name among the members' cells, and
	// since that is all of them, ClaimsFromClusters claims every cell,
	// member by member in cell order: claim c is the cell of(c).
	type cellRef struct{ m, k int32 }
	of, names := make([]cellRef, 0, cells), make([]string, 0, cells)
	for m, r := range recs {
		for k, f := range r.Fields() {
			of = append(of, cellRef{int32(m), int32(k)})
			names = append(names, f.Attr)
		}
	}
	slices.Sort(names)
	v.attrs = slices.Clone(slices.Compact(names))
	value := func(c int32) data.Value { return recs[of[c].m].Fields()[of[c].k].Value }
	claims := data.ClaimsFromClusters(d, data.Clustering{cl}, v.attrs)
	items := claims.Columns().Items
	view, claim := claims.ByItem()
	v.rep = make([]int32, len(claim))
	for i, it := range items {
		v.attrs[i] = it.Attr
		for p := view.Start[i]; p < view.Start[i+1]; p++ {
			// Same key (rank) and == together mean the same spelling: ==
			// alone takes 0 for -0, the key alone one instant for another
			// zone's.
			v.rep[p] = of[claim[p]].m
			for q := view.Start[i]; q < p; q++ {
				if view.Val[q] == view.Val[p] && value(claim[q]) == value(claim[p]) {
					v.rep[p] = v.rep[q]
					break
				}
			}
			view.Src[p] = s.sourceID(view.Sources[view.Src[p]])
		}
	}
	view.Sources = nil
	v.items = view
	v.winner = make([]int32, len(v.attrs))
	return v
}

// sourceID interns a source name into the table the views' evidence
// refers to.
func (s *Stream) sourceID(name string) int32 {
	id, ok := s.srcIDs[name]
	if !ok {
		id = int32(len(s.items.Sources))
		s.srcIDs[name] = id
		s.items.Sources = append(s.items.Sources, name)
	}
	return id
}

// refreshViews brings the view list in line with the partition: a
// cluster whose view is current keeps it, any other gets a new one, and
// views of clusters that no longer exist are dropped. Both the old list
// and the partition are ordered by first member, so one merge pairs
// them up.
func (s *Stream) refreshViews(clusters [][]string, st *publishStats) {
	d := s.inc.Dataset()
	prev, next := s.views, make([]*clusterView, len(clusters))
	p := 0
	for ci, cl := range clusters {
		for p < len(prev) && prev[p].records[0] < cl[0] {
			p++
		}
		if p < len(prev) && prev[p].records[0] == cl[0] && prev[p].current(d, cl) {
			next[ci] = prev[p]
			st.reused++
			continue
		}
		recs := make([]*data.Record, len(cl))
		for i, id := range cl {
			recs[i] = d.Record(id)
		}
		next[ci] = s.newClusterView(d, cl, recs)
		st.rebuilt++
	}
	s.views = next
}

// publishStats is what one buildView did, for the stream.publish.*
// metrics.
type publishStats struct {
	views, fuse, feedback, snapshot time.Duration
	reused, rebuilt, docs           int
}

func (st publishStats) report(reg *obs.Registry) {
	reg.Timer("stream.publish.views").Observe(st.views)
	reg.Timer("stream.publish.fuse").Observe(st.fuse)
	reg.Timer("stream.publish.feedback").Observe(st.feedback)
	reg.Timer("stream.publish.snapshot").Observe(st.snapshot)
	reg.Counter("stream.views_reused").Add(int64(st.reused))
	reg.Counter("stream.views_rebuilt").Add(int64(st.rebuilt))
	reg.Counter("stream.docs_rebuilt").Add(int64(st.docs))
}

// buildView materializes the current integrated view in four steps, each
// timed into the returned stats: the cluster views are brought up to
// date, every item is fused by the online kernel under the current
// accuracy estimates, the outcome is fed back into those estimates (when
// feedback is set — a publish, not a Rebuild), and a serving snapshot is
// assembled from the views' cached docs.
func (s *Stream) buildView(ctx context.Context, feedback bool) (*Snapshot, publishStats, error) {
	var st publishStats
	t0 := time.Now()
	s.refreshViews(s.inc.Partition(), &st)
	t1 := time.Now()
	st.views = t1.Sub(t0)

	// The views' fragments laid end to end are the claim set's item view:
	// the items data.ClaimsFromClusters would collect, each with its
	// claims in the same order.
	s.items.Start, s.items.Src, s.items.Val = append(s.items.Start[:0], 0), s.items.Src[:0], s.items.Val[:0]
	for _, v := range s.views {
		s.items.Append(&v.items)
	}
	onl := fusion.Online{Accuracy: s.acc, N: s.cfg.FusionN, Workers: s.cfg.Workers, Ctx: ctx}
	_, fused, err := onl.FuseFlat(&s.items, s.fused)
	if err != nil {
		return nil, st, err
	}
	s.fused = fused
	t2 := time.Now()
	st.fuse = t2.Sub(t1)

	if feedback {
		s.updateAccuracy()
	}
	t3 := time.Now()
	st.feedback = t3.Sub(t2)

	snap := s.assemble(&st)
	st.snapshot = time.Since(t3)
	return snap, st, nil
}

// assemble builds the snapshot of the fused views. Every entity gets a
// new header — its number and confidences are this publish's — over the
// view's immutable parts; a view's doc is rebuilt only if one of its
// items was won by a different spelling than the doc was built for. The
// doc's title set, and the word set of a fused title, are read from the
// feature index's entry for the record they come from; only the other
// fused string values are tokenised. Then the dictionaries' growth bound
// is checked (bound).
func (s *Stream) assemble(st *publishStats) *Snapshot {
	ents, docs := make([]*Entity, len(s.views)), make([]*entityDoc, len(s.views))
	item, claim := 0, int32(0) // where the view's items and claims start in s.fused and s.items
	for i, v := range s.views {
		stale := v.doc == nil
		conf := make(map[string]float64, len(v.attrs))
		for j, attr := range v.attrs {
			w := int32(-1)
			if f := s.fused[item+j]; f.Val >= 0 {
				w = v.rep[f.Last-claim]
				conf[attr] = f.Conf
			}
			if v.winner[j] != w {
				v.winner[j], stale = w, true
			}
		}
		if stale {
			v.doc = s.newDoc(v)
			st.docs++
		}
		if i == len(s.entityIDs) {
			s.entityIDs = append(s.entityIDs, "e"+strconv.Itoa(i))
		}
		ents[i], docs[i] = &Entity{
			ID: s.entityIDs[i], Records: v.records, Sources: v.sources,
			Title: v.title, Values: v.doc.values, Confidence: conf,
		}, v.doc
		item, claim = item+len(v.attrs), claim+int32(len(v.rep))
	}
	snap := newSnapshot(ents, docs, s.words(), s.keys)
	s.bound(snap)
	return snap
}

// newDoc builds the doc of v under its current winners.
func (s *Stream) newDoc(v *clusterView) *entityDoc {
	var title []uint32
	if v.named != nil {
		title = s.index.Tokens(v.named, 0)
	}
	values := make(map[string]data.Value, len(v.attrs))
	var fusedTitle *data.Record
	for j, attr := range v.attrs {
		if w := v.winner[j]; w >= 0 {
			values[attr] = v.recs[w].Get(attr)
			if attr == titleAttr {
				fusedTitle = v.recs[w]
			}
		}
	}
	return newEntityDoc(title, values, func(attr string) []uint32 {
		if attr == titleAttr {
			return s.index.Tokens(fusedTitle, 0)
		}
		return s.words().InternAll(tokenize.Words(values[attr].Str))
	}, s.keys)
}

// bound is the stream's one dictionary growth bound, checked on the
// snapshot just built. A word ID is held while a feature-index entry or
// a doc carries it, a value key while a doc does; once a dictionary's
// IDs that nothing holds outnumber those that something does, it is
// renumbered into a fresh one of its held IDs (tokenize.Dict.Renumber),
// the feature index along with the words, and the views are dropped, so
// the next publish is a cold one. Snapshots already built keep the old
// dictionaries and docs, which nothing rewrites. The index is scanned
// only when the docs alone hold too few words.
func (s *Stream) bound(snap *Snapshot) {
	words, n := snap.words.held()
	if 2*n < len(words) {
		if n += s.index.MarkHeld(words); 2*n < len(words) {
			s.index.Renumber(words)
			s.views = nil
		}
	}
	if keys, n := snap.values.held(); 2*n < len(keys) {
		s.keys, _ = s.keys.Renumber(keys)
		s.views = nil
	}
}

// updateAccuracy folds the fused outcome back into the per-source
// accuracy estimates: Laplace-smoothed agreement with the published
// values over every claim, duplicates included, of every item that has
// one. The estimates steer the online kernel's probe order on the next
// publish — the online analogue of ACCU's accuracy iteration.
func (s *Stream) updateAccuracy() {
	iv := &s.items
	agree, total := make([]int, len(iv.Sources)), make([]int, len(iv.Sources))
	for i, f := range s.fused {
		if f.Val < 0 {
			continue
		}
		for c := iv.Start[i]; c < iv.Start[i+1]; c++ {
			total[iv.Src[c]]++
			if iv.Val[c] == f.Val {
				agree[iv.Src[c]]++
			}
		}
	}
	for src, n := range total {
		if n > 0 {
			s.acc[iv.Sources[src]] = (float64(agree[src]) + 1) / (float64(n) + 2)
		}
	}
}
