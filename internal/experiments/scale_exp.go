package experiments

import (
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/blocking"
	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/obs"
)

// e24GroupSize is the scale corpus' block-group size: after purging
// the vocabulary blocks, raw pairs ≈ records/8 × C(8,2).
const e24GroupSize = 8

// E24Opts parameterises the scale-out sweep. The zero value runs a
// test-sized sweep; cmd/bdibench passes the paper-scale 1M/3M/10M
// sizes and a real spill directory.
type E24Opts struct {
	Sizes          []int   // record counts (default 20k/60k)
	Workers        []int   // worker counts (default 1/2/8)
	Shards         int     // pair-generation shards (default 8)
	BudgetFraction float64 // pair budget as a fraction of the unsharded pair peak (default 0.25)
	PairMemBudget  int64   // explicit budget in bytes; > 0 overrides BudgetFraction
	SpillDir       string  // spill directory ("" = os.TempDir())
}

func (o *E24Opts) defaults() {
	if len(o.Sizes) == 0 {
		o.Sizes = []int{20_000, 60_000}
	}
	if len(o.Workers) == 0 {
		o.Workers = []int{1, 2, 8}
	}
	if o.Shards <= 0 {
		o.Shards = 8
	}
	if o.BudgetFraction <= 0 {
		o.BudgetFraction = 0.25
	}
}

// E24Row is one (size, workers) cell of the scaling sweep.
type E24Row struct {
	Records int `json:"records"`
	Workers int `json:"workers"`

	RawPairs int `json:"raw_pairs"` // pre-dedup pair expansions
	Pairs    int `json:"pairs"`     // deduplicated candidates

	UnshardedPeakBytes int64 `json:"unsharded_peak_bytes"` // in-memory pair footprint: raw codes + dedup clone
	BudgetBytes        int64 `json:"budget_bytes"`         // pair-memory budget of the spilled run
	PeakHeapBytes      int64 `json:"peak_heap_bytes"`      // sampled heap high-water during the spilled run

	SpillRuns     int64 `json:"spill_runs"`       // phase-A run files
	SpillMergeRun int64 `json:"spill_merge_runs"` // position buckets phase B writes
	Merges        int64 `json:"merges"`           // k-way merges performed: phase B's one; replays merge nothing

	Seconds     float64 `json:"seconds"` // spilled run: blocks + pair generation + full stream
	PairsPerSec float64 `json:"pairs_per_sec"`

	Identical bool `json:"identical"` // spilled stream hash == in-memory stream hash
}

// E24Result is the structured output of E24.
type E24Result struct {
	Shards int      `json:"shards"`
	Rows   []E24Row `json:"rows"`
}

// pairStreamHash fingerprints a candidate stream in emission order.
func pairStreamHash(cs *blocking.CandidateSet) uint64 {
	h := fnv.New64a()
	cs.EmitPairs(func(p data.Pair) bool {
		h.Write([]byte(p.A))
		h.Write([]byte{0})
		h.Write([]byte(p.B))
		h.Write([]byte{1})
		return true
	})
	return h.Sum64()
}

// E24 — sharded scale-out: pair generation under a memory budget ≤ 25%
// of the unsharded pair peak, across corpus sizes and worker counts,
// with spill-run/merge counters and the heap high-water mark reported
// via internal/obs. Every budgeted run's candidate stream is checked
// byte-identical (by stream hash) against the unsharded in-memory
// engine.
func E24(seed int64, o E24Opts) (*Table, *E24Result, error) {
	o.defaults()
	key := blocking.TokenKey("title")
	res := &E24Result{Shards: o.Shards}
	tab := &Table{
		ID: "E24", Title: "sharded blocking: memory-budgeted pair generation at scale",
		Columns: []string{
			"records", "workers", "raw pairs", "pairs", "unsharded MB",
			"budget MB", "peak heap MB", "runs", "merges", "sec", "pairs/s", "identical",
		},
		Notes: fmt.Sprintf("shards=%d, budget=%.0f%% of unsharded pair peak (raw codes + dedup clone); identical = spilled stream hash matches the in-memory engine",
			o.Shards, o.BudgetFraction*100),
	}
	mb := func(b int64) string { return fmt.Sprintf("%.1f", float64(b)/(1<<20)) }
	for _, n := range o.Sizes {
		recs := datagen.ScaleRecords(datagen.ScaleConfig{Seed: seed, NumRecords: n, GroupSize: e24GroupSize})

		// Unsharded in-memory reference: raw pair count, the dedup
		// stream fingerprint, and the analytic pair-memory peak (the
		// raw code slice plus the sorted clone dedup makes of it).
		ref := blocking.NewEngineOpts(recs, blocking.Opts{}).Blocks(key).Purge(e24GroupSize)
		raw := ref.Comparisons()
		refSet := ref.CandidateSet()
		wantHash := pairStreamHash(refSet)
		wantPairs := refSet.Len()
		unshardedPeak := int64(raw) * 16
		budget := o.PairMemBudget
		if budget <= 0 {
			budget = int64(float64(unshardedPeak) * o.BudgetFraction)
		}

		for _, w := range o.Workers {
			reg := obs.NewRegistry()
			watch := obs.StartHeapWatch(reg, 0)
			start := time.Now()
			eng := blocking.NewEngineOpts(recs, blocking.Opts{
				Workers: w, Shards: o.Shards,
				PairMemBudget: budget, SpillDir: o.SpillDir, Obs: reg,
			})
			cs := eng.Blocks(key).Purge(e24GroupSize).CandidateSet()
			gotHash := pairStreamHash(cs)
			gotPairs := cs.Len()
			secs := time.Since(start).Seconds()
			peak := watch.Stop()
			if err := cs.Close(); err != nil {
				return nil, nil, fmt.Errorf("E24 n=%d w=%d: close: %w", n, w, err)
			}
			snap := reg.Snapshot()
			counters := map[string]int64{}
			for _, c := range snap.Counters {
				counters[c.Name] = c.Value
			}
			row := E24Row{
				Records: n, Workers: w,
				RawPairs: raw, Pairs: gotPairs,
				UnshardedPeakBytes: unshardedPeak, BudgetBytes: budget, PeakHeapBytes: peak,
				SpillRuns:     counters["blocking.spill_runs"],
				SpillMergeRun: counters["blocking.spill_merge_runs"],
				Merges:        counters["blocking.spill_merges"],
				Seconds:       secs,
				Identical:     gotHash == wantHash && gotPairs == wantPairs,
			}
			if secs > 0 {
				row.PairsPerSec = float64(row.Pairs) / secs
			}
			if !row.Identical {
				return nil, nil, fmt.Errorf("E24 n=%d w=%d: budgeted stream diverged from the in-memory engine", n, w)
			}
			if row.SpillRuns == 0 {
				return nil, nil, fmt.Errorf("E24 n=%d w=%d: budget %d never spilled (raw=%d)", n, w, budget, raw)
			}
			res.Rows = append(res.Rows, row)
			tab.Rows = append(tab.Rows, []string{
				d1(n), d1(w), d1(raw), d1(row.Pairs), mb(unshardedPeak),
				mb(budget), mb(peak), d1(int(row.SpillRuns)), d1(int(row.Merges)),
				fmt.Sprintf("%.2f", secs), fmt.Sprintf("%.0f", row.PairsPerSec),
				fmt.Sprintf("%v", row.Identical),
			})
		}
	}
	return tab, res, nil
}
