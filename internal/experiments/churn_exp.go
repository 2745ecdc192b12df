package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/eval"
	"repro/internal/source"
)

// E28Result is the structured output of E28.
type E28Result struct {
	Checkpoints []int     // live corpus size at each published checkpoint
	StreamF1    []float64 // churn stream's linkage F1 over the live records
	BatchF1     []float64 // from-scratch run over the same live records
	MaxGap      float64   // max |StreamF1 - BatchF1| over all checkpoints
	Deletes     int64     // effective deletes applied by the stream
}

// E28 — mutable-stream churn: a delta stream carrying 10% updates and
// 5% deletes drains through the incremental path, and at every publish
// checkpoint its linkage F1 over the live records is compared against a
// from-scratch run of the same engine over exactly those records. The
// gap stays within 0.01 at every checkpoint: retraction plus
// deterministic reclustering keeps the online partition equivalent to
// one that never saw the dead records.
func E28(seed int64) (*Table, *E28Result, error) {
	web := dirtyWeb(seed, 300, 12, 1)
	d := web.Dataset
	fleet, totals, deleted := source.ChurnSources(d, source.ChurnConfig{
		Seed: seed, UpdateRate: 0.10, DeleteRate: 0.05,
	})
	if len(deleted) == 0 {
		return nil, nil, fmt.Errorf("E28: churn produced no deletions")
	}
	metas := map[string]*data.Source{}
	for _, s := range d.Sources() {
		metas[s.ID] = s
	}

	// MaxBlock is unbounded so both sides compare every co-blocked pair:
	// the stop-token bound gates on block fill order, which would differ
	// between stream arrival order and the from-scratch replay and
	// confound the retraction measurement with (pre-existing, insert-only)
	// order sensitivity.
	cfg := core.StreamConfig{EpochSize: 40, PublishEvery: 1, Workers: 4, MatchThreshold: 0.72, MaxBlock: -1}
	st, err := core.NewStream(cfg, nil)
	if err != nil {
		return nil, nil, err
	}

	res := &E28Result{}
	tab := &Table{
		ID: "E28", Title: "churn stream vs from-scratch batch under updates and deletes",
		Columns: []string{"live corpus", "stream F1", "batch F1", "gap"},
	}

	str, err := source.NewDeltaStreamer(context.Background(), fleet, source.StreamConfig{
		EpochSize: cfg.EpochSize, Totals: totals,
	})
	if err != nil {
		return nil, nil, err
	}
	defer str.Close()

	for ep := range str.C {
		if len(ep.Deltas) == 0 {
			continue
		}
		if err := st.ApplyDeltas(metas, ep); err != nil {
			return nil, nil, err
		}
		if _, err := st.Publish(context.Background()); err != nil {
			return nil, nil, err
		}

		// The stream's dataset holds exactly the live records.
		liveTruth := st.Dataset().GroundTruthClusters()
		streamF1 := eval.Clusters(st.Clusters(), liveTruth).F1
		batchF1, err := e28FromScratchF1(cfg, st.Dataset(), metas, liveTruth)
		if err != nil {
			return nil, nil, err
		}
		gap := math.Abs(streamF1 - batchF1)
		if gap > res.MaxGap {
			res.MaxGap = gap
		}
		res.Checkpoints = append(res.Checkpoints, st.Dataset().NumRecords())
		res.StreamF1 = append(res.StreamF1, streamF1)
		res.BatchF1 = append(res.BatchF1, batchF1)
		tab.Rows = append(tab.Rows, []string{
			d1(st.Dataset().NumRecords()),
			fmt.Sprintf("%.4f", streamF1),
			fmt.Sprintf("%.4f", batchF1),
			fmt.Sprintf("%.4f", gap),
		})
	}
	if err := str.Err(); err != nil {
		return nil, nil, err
	}
	res.Deletes = st.Deleted()
	tab.Notes = fmt.Sprintf(
		"churn 10%% updates / 5%% deletes over %d records; %d deletes, max F1 gap vs from-scratch %.4f",
		d.NumRecords(), res.Deletes, res.MaxGap)
	return tab, res, nil
}

// e28FromScratchF1 runs a fresh instance of the same incremental engine
// over the live records only — the "never saw the churn" baseline the
// stream's retraction path must match.
func e28FromScratchF1(cfg core.StreamConfig, live *data.Dataset,
	metas map[string]*data.Source, liveTruth data.Clustering) (float64, error) {
	fresh, err := core.NewStream(cfg, nil)
	if err != nil {
		return 0, err
	}
	var deltas []source.Delta
	for _, s := range live.Sources() {
		for _, r := range live.SourceRecords(s.ID) {
			deltas = append(deltas, source.Upsert(r))
		}
	}
	if err := fresh.ApplyDeltas(metas, source.DeltaEpoch{Seq: 0, Deltas: deltas}); err != nil {
		return 0, err
	}
	return eval.Clusters(fresh.Clusters(), liveTruth).F1, nil
}
