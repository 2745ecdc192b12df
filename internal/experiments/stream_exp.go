package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/eval"
	"repro/internal/fusion"
	"repro/internal/linkage"
	"repro/internal/similarity"
	"repro/internal/source"
)

// E27Result is the structured output of E27.
type E27Result struct {
	Checkpoints  []int           // corpus size after each epoch
	StreamPerRec []time.Duration // per-record cost of the stream path at that epoch
	BatchPerRec  []time.Duration // per-record cost of a full batch rebuild at that size
	// Cumulative wall-clock over the whole stream: the streaming velocity
	// path (incremental linkage + online fusion + snapshot publish every
	// epoch) vs redoing the batch path (relink + refuse + rebuild) at
	// every checkpoint.
	CumulativeStream time.Duration
	CumulativeBatch  time.Duration
	Publishes        int64
	FinalF1          float64
	// ResumeIdentical reports whether a second stream, killed mid-run and
	// restored from its persisted state, finished with observables
	// byte-identical to the uninterrupted run — the snapshot/restore
	// contract under the epoch-driven publish cadence.
	ResumeIdentical bool
}

// E27 — streaming vs batch-relink integration cost: the full velocity
// path (epoch stream → incremental linkage → online fusion → snapshot
// publish) against E7's baseline of re-running the batch path at every
// checkpoint. The stream's cumulative cost grows linearly with the
// stream; the batch baseline redoes all prior work at each checkpoint
// and grows quadratically. The run also exercises snapshot/restore:
// a crashed-and-resumed stream must reproduce the uninterrupted run's
// output byte for byte.
func E27(seed int64) (*Table, *E27Result, error) {
	web := dirtyWeb(seed, 500, 20, 1)
	d := web.Dataset
	fleet := source.FromDataset(d)
	totals := source.Totals(d)
	metas := map[string]*data.Source{}
	for _, s := range d.Sources() {
		metas[s.ID] = s
	}

	// Publish every epoch so both sides pay fusion + snapshot cost at
	// every checkpoint — the comparison is path shape, not cadence.
	// 0.72 is E7's calibration for this dirt profile: above the
	// Jaccard of same-brand-same-series titles of different entities,
	// below true duplicates with one perturbed token.
	cfg := core.StreamConfig{EpochSize: 5, PublishEvery: 1, Workers: 4, MatchThreshold: 0.72}
	st, err := core.NewStream(cfg, nil)
	if err != nil {
		return nil, nil, err
	}
	// The batch side replays the stream matcher exactly (identifier
	// short-circuit, then weighted Jaccard on title at the same
	// threshold) so both paths make the same match decisions and differ
	// only in how much work they redo.
	matcher := linkage.RuleMatcher{
		Exact:      []string{"pid"},
		Comparator: similarity.NewRecordComparator(similarity.FieldWeight{Attr: "title", Weight: 2, Metric: similarity.Jaccard}),
		Threshold:  cfg.MatchThreshold,
	}

	res := &E27Result{}
	tab := &Table{
		ID: "E27", Title: "streaming vs batch-relink integration cost per epoch",
		Columns: []string{"corpus", "stream/rec", "batch/rec", "stream cmp"},
	}

	str, err := source.NewDeltaStreamer(context.Background(), fleet, source.StreamConfig{
		EpochSize: cfg.EpochSize, Totals: totals,
	})
	if err != nil {
		return nil, nil, err
	}
	defer str.Close()

	for ep := range str.C {
		n := len(ep.Deltas)
		if n == 0 {
			continue
		}
		// Stream side: fold the epoch in, republish the view.
		t0 := time.Now()
		if err := st.ApplyDeltas(metas, ep); err != nil {
			return nil, nil, err
		}
		if _, err := st.Publish(context.Background()); err != nil {
			return nil, nil, err
		}
		streamElapsed := time.Since(t0)
		res.CumulativeStream += streamElapsed

		// Batch side: redo blocking, matching, clustering, claims,
		// fusion and the snapshot over everything seen so far.
		seen := st.Dataset().Records()
		t0 = time.Now()
		cands, err := pairsOf(seen, blocking.Standard{Key: blocking.TokenKey("title"), MaxBlock: 200})
		if err != nil {
			return nil, nil, err
		}
		edges, err := linkage.MatchStreamCtx(context.Background(), st.Dataset(), linkage.PairSlice(cands), matcher, 4, nil)
		if err != nil {
			return nil, nil, err
		}
		ids := make([]string, 0, len(seen))
		for _, r := range seen {
			ids = append(ids, r.ID)
		}
		clusters := linkage.ConnectedComponents{}.Cluster(ids, edges)
		attrs := make([]string, 0, 8)
		for _, ac := range st.Dataset().Attributes() {
			attrs = append(attrs, ac.Attr)
		}
		sort.Strings(attrs)
		claims := data.ClaimsFromClusters(st.Dataset(), clusters, attrs)
		fus, err := fusion.MajorityVote{}.Fuse(claims)
		if err != nil {
			return nil, nil, err
		}
		if _, err := core.BuildSnapshot(&core.Report{Normalized: st.Dataset(), Clusters: clusters, Fusion: fus}); err != nil {
			return nil, nil, err
		}
		batchElapsed := time.Since(t0)
		res.CumulativeBatch += batchElapsed

		corpus := int(st.Ingested())
		res.Checkpoints = append(res.Checkpoints, corpus)
		res.StreamPerRec = append(res.StreamPerRec, streamElapsed/time.Duration(n))
		res.BatchPerRec = append(res.BatchPerRec, batchElapsed/time.Duration(corpus))
		tab.Rows = append(tab.Rows, []string{
			d1(corpus),
			(streamElapsed / time.Duration(n)).String(),
			(batchElapsed / time.Duration(corpus)).String(),
			d1(st.Comparisons()),
		})
	}
	if err := str.Err(); err != nil {
		return nil, nil, err
	}
	res.Publishes = st.Publishes()
	res.FinalF1 = eval.Clusters(st.Clusters(), d.GroundTruthClusters()).F1

	identical, err := e27ResumeIdentical(cfg, d, fleet, totals, metas, st)
	if err != nil {
		return nil, nil, err
	}
	res.ResumeIdentical = identical

	tab.Notes = fmt.Sprintf(
		"whole stream: streaming %s vs batch-relink-at-every-checkpoint %s; final stream F1 = %.3f; crash/resume byte-identical = %v",
		res.CumulativeStream, res.CumulativeBatch, res.FinalF1, res.ResumeIdentical)
	return tab, res, nil
}

// e27ResumeIdentical replays the stream with persistence enabled, kills
// it at the midpoint, restores from the state file and finishes — then
// compares every observable against the uninterrupted run.
func e27ResumeIdentical(cfg core.StreamConfig, d *data.Dataset, fleet []source.DeltaSource,
	totals map[string]int, metas map[string]*data.Source, base *core.Stream) (bool, error) {
	dir, err := os.MkdirTemp("", "e27-state-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "stream.state")

	pcfg := cfg
	pcfg.StatePath = path
	crashed, err := core.NewStream(pcfg, nil)
	if err != nil {
		return false, err
	}
	str, err := source.NewDeltaStreamer(context.Background(), fleet, source.StreamConfig{
		EpochSize: pcfg.EpochSize, Totals: totals,
	})
	if err != nil {
		return false, err
	}
	defer str.Close()
	crashAt := base.Epoch() / 2
	for ep := range str.C {
		if ep.Seq == crashAt {
			break // killed between save points; the state file holds epoch crashAt
		}
		if err := crashed.ApplyDeltas(metas, ep); err != nil {
			return false, err
		}
		if _, err := crashed.Publish(context.Background()); err != nil {
			return false, err
		}
		if err := crashed.Save(path); err != nil {
			return false, err
		}
	}

	resumed, err := core.LoadStream(path, pcfg, nil)
	if err != nil {
		return false, err
	}
	if err := resumed.RunDeltas(context.Background(), fleet, totals); err != nil {
		return false, err
	}
	a, err := e27Fingerprint(base)
	if err != nil {
		return false, err
	}
	b, err := e27Fingerprint(resumed)
	if err != nil {
		return false, err
	}
	return a == b, nil
}

// e27Fingerprint renders every output-relevant stream observable as one
// string, through exported API only.
func e27Fingerprint(st *core.Stream) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "epoch=%d ingested=%d publishes=%d comparisons=%d\n",
		st.Epoch(), st.Ingested(), st.Publishes(), st.Comparisons())
	fmt.Fprintf(&b, "clusters=%v\n", st.Clusters())
	cursors := st.Cursors()
	ids := make([]string, 0, len(cursors))
	for id := range cursors {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Fprintf(&b, "cursor %s=%d\n", id, cursors[id])
	}
	acc := st.Accuracy()
	ids = ids[:0]
	for id := range acc {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Fprintf(&b, "acc %s=%.17g\n", id, acc[id])
	}
	snap, err := st.Rebuild(context.Background())
	if err != nil {
		return "", err
	}
	for _, e := range snap.Entities() {
		fmt.Fprintf(&b, "entity %s title=%q records=%v sources=%v\n", e.ID, e.Title, e.Records, e.Sources)
		attrs := make([]string, 0, len(e.Values))
		for a := range e.Values {
			attrs = append(attrs, a)
		}
		sort.Strings(attrs)
		for _, a := range attrs {
			fmt.Fprintf(&b, "  %s=%s conf=%.17g\n", a, e.Values[a].Key(), e.Confidence[a])
		}
	}
	return b.String(), nil
}
