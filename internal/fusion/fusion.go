// Package fusion implements the data-fusion (truth-discovery) stage for
// the Veracity dimension: majority and weighted voting, TruthFinder,
// the Bayesian source-accuracy model ACCU and its POPACCU variant,
// pairwise copy detection between sources, and the copy-aware ACCUCOPY
// fuser — the method family of Dong, Berti-Équille & Srivastava that
// the Big Data Integration tutorial surveys.
//
// Every fuser reads one claim layout, the data.ClaimSet table. The batch
// fusers and the copy detector lay it out for the EM as a claimIndex
// (engine.go) by integer counting sorts; the online kernel reads its
// per-item view (data.ItemView), which core.Stream keeps per cluster;
// NumericFusion reads its columns directly. All float accumulations walk
// fixed slice orders, so every fuser is bit-deterministic and produces
// identical output for any worker count.
package fusion

import (
	"context"

	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// Result is the outcome of fusing a claim set.
type Result struct {
	// Values holds the fused (believed-true) value per item.
	Values map[data.Item]data.Value
	// Confidence holds the fuser's probability for the chosen value.
	Confidence map[data.Item]float64
	// SourceAccuracy holds estimated accuracies for fusers that model
	// them (nil otherwise).
	SourceAccuracy map[string]float64
	// Iterations the fuser ran before convergence (1 for one-shot).
	Iterations int
}

// Fuser decides the true value of every item in a claim set.
type Fuser interface {
	Fuse(cs *data.ClaimSet) (*Result, error)
	Name() string
}

// MajorityVote picks the most-claimed value per item, breaking ties by
// value key for determinism.
type MajorityVote struct {
	// Workers bounds the worker pool (0 = NumCPU); output is identical
	// for any value.
	Workers int
	// Obs records "fusion." index metrics when set.
	Obs *obs.Registry
	// Ctx cancels the fuse at chunk boundaries; nil never cancels.
	Ctx context.Context
}

// Name implements Fuser.
func (MajorityVote) Name() string { return "vote" }

// Fuse implements Fuser.
func (mv MajorityVote) Fuse(cs *data.ClaimSet) (*Result, error) {
	return WeightedVote{Workers: mv.Workers, Obs: mv.Obs, Ctx: mv.Ctx}.Fuse(cs)
}

// WeightedVote votes with per-source weights (e.g. externally known
// trust levels). Unknown sources weigh DefaultWeight (1 when zero).
type WeightedVote struct {
	Weights       map[string]float64
	DefaultWeight float64
	// Workers bounds the worker pool (0 = NumCPU); output is identical
	// for any value.
	Workers int
	// Obs records "fusion." index metrics when set.
	Obs *obs.Registry
	// Ctx cancels the fuse at chunk boundaries; nil never cancels.
	Ctx context.Context
}

// Name implements Fuser.
func (WeightedVote) Name() string { return "weighted-vote" }

// Fuse implements Fuser: one voting round on the claimIndex. Weights are
// resolved once per source rank, items score in parallel (per-key sums
// in claim insertion order, totals in sorted-key order), and each item
// writes only its own slots — identical output for any worker count.
func (wv WeightedVote) Fuse(cs *data.ClaimSet) (*Result, error) {
	cfg := parallel.Config{Workers: wv.Workers, Obs: wv.Obs, Ctx: wv.Ctx}
	ci := buildIndex(cs, cfg)
	def := wv.DefaultWeight
	if def == 0 {
		def = 1
	}
	w := make([]float64, len(ci.sources))
	for s, src := range ci.sources {
		w[s] = def
		if x, ok := wv.Weights[src]; ok {
			w[s] = x
		}
	}

	bestV := make([]int, len(ci.items))
	bestW := make([]float64, len(ci.items))
	totalW := make([]float64, len(ci.items))
	if err := parallel.ForEach(cfg, len(ci.items), func(i int) {
		best, bw, tw := -1, 0.0, 0.0
		for v := ci.valOff[i]; v < ci.valOff[i+1]; v++ {
			var vw float64
			for e := ci.supOff[v]; e < ci.supOff[v+1]; e++ {
				vw += w[ci.supSrc[e]]
			}
			tw += vw
			if vw > bw {
				bw, best = vw, v
			}
		}
		bestV[i], bestW[i], totalW[i] = best, bw, tw
	}); err != nil {
		return nil, err
	}

	res := &Result{
		Values:     make(map[data.Item]data.Value, len(ci.items)),
		Confidence: make(map[data.Item]float64, len(ci.items)),
		Iterations: 1,
	}
	for i, it := range ci.items {
		if bestV[i] < 0 {
			continue
		}
		res.Values[it] = ci.valVals[bestV[i]]
		if totalW[i] > 0 {
			res.Confidence[it] = bestW[i] / totalW[i]
		}
	}
	return res, nil
}
