// Package fusion implements the data-fusion (truth-discovery) stage for
// the Veracity dimension: majority and weighted voting, TruthFinder,
// the Bayesian source-accuracy model ACCU and its POPACCU variant,
// pairwise copy detection between sources, and the copy-aware ACCUCOPY
// fuser — the method family of Dong, Berti-Équille & Srivastava that
// the Big Data Integration tutorial surveys.
//
// MajorityVote, WeightedVote, TruthFinder, ACCU/POPACCU, ACCUCOPY and
// the copy detector run on the interned claimIndex (engine.go): source
// IDs, items and value keys are interned to dense uint32 ranks, the
// iterative state lives in flat slices, and all float accumulations
// walk fixed slice orders. Two fusers are not on the index: Online has
// a flat layout of its own (Evidence, online.go: claims in insertion
// order, because "a source's last claim on an item wins", which the
// index does not record) shared with core.Stream, which keeps its
// claims in that form, and NumericFusion is a sequential per-item pass.
// Every fuser is bit-deterministic and produces identical output for
// any worker count.
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
	return weightedVote(cs, parallel.Config{Workers: mv.Workers, Obs: mv.Obs, Ctx: mv.Ctx}, func(string) float64 { return 1 })
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

// Fuse implements Fuser.
func (wv WeightedVote) Fuse(cs *data.ClaimSet) (*Result, error) {
	def := wv.DefaultWeight
	if def == 0 {
		def = 1
	}
	return weightedVote(cs, parallel.Config{Workers: wv.Workers, Obs: wv.Obs, Ctx: wv.Ctx}, func(s string) float64 {
		if w, ok := wv.Weights[s]; ok {
			return w
		}
		return def
	})
}

// weightedVote runs one voting round on the interned index: weights are
// resolved once per source rank, items score in parallel (per-key sums
// in claim insertion order, totals in sorted-key order), and each item
// writes only its own slots — identical output for any worker count.
func weightedVote(cs *data.ClaimSet, cfg parallel.Config, weight func(string) float64) (*Result, error) {
	ci, err := buildIndex(cs, cfg)
	if err != nil {
		return nil, err
	}
	w := make([]float64, len(ci.sources))
	for s, src := range ci.sources {
		w[s] = weight(src)
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
