package fusion

import (
	"context"
	"math"

	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// TruthFinder implements Yin, Han & Yu's iterative trust model: a
// source's trustworthiness is the average confidence of the values it
// claims; a value's confidence aggregates the trust of its claimants
// through a log-odds combination. Iterate until source trust
// stabilises. Runs on the claimIndex with the same
// parallel-E/parallel-M layout as ACCU.
type TruthFinder struct {
	// Gamma dampens the confidence logistic. Default 0.3.
	Gamma float64
	// InitialTrust of every source. Default 0.8.
	InitialTrust float64
	// MaxIterations (default 20) and Epsilon (default 1e-4) bound the
	// fixpoint loop.
	MaxIterations int
	Epsilon       float64
	// Workers bounds the worker pool (0 = NumCPU); output is identical
	// for any value.
	Workers int
	// Obs records "fusion." metrics when set.
	Obs *obs.Registry
	// Ctx cancels the fixpoint loop at chunk boundaries; nil never
	// cancels.
	Ctx context.Context
}

// Name implements Fuser.
func (TruthFinder) Name() string { return "truthfinder" }

// Fuse implements Fuser.
func (tf TruthFinder) Fuse(cs *data.ClaimSet) (*Result, error) {
	gamma, trust0 := orDefault(tf.Gamma, 0.3), probOr(tf.InitialTrust, 0.8)
	maxIter, eps := orDefault(tf.MaxIterations, 20), orDefault(tf.Epsilon, 1e-4)

	ci := buildIndex(cs, parallel.Config{Workers: tf.Workers, Obs: tf.Obs, Ctx: tf.Ctx})
	reg := obs.OrDefault(tf.Obs)

	trust := make([]float64, len(ci.sources))
	for s := range trust {
		trust[s] = trust0
	}

	const maxTrust = 0.999999
	conf := make([]float64, len(ci.valVals))
	iters := 0
	for iter := 0; iter < maxIter; iter++ {
		iters = iter + 1
		// Value confidences from source trust: each value sums its
		// claimants' tau in claim insertion order.
		if err := parallel.ForEach(ci.cfg, len(ci.valVals), func(v int) {
			var sigma float64
			for e := ci.supOff[v]; e < ci.supOff[v+1]; e++ {
				sigma += -math.Log(1 - min(trust[ci.supSrc[e]], maxTrust)) // tau(s)
			}
			conf[v] = 1 / (1 + math.Exp(-gamma*sigma))
		}); err != nil {
			return nil, err
		}
		// Source trust from value confidences.
		maxDelta, err := ci.mStep(reg, conf, trust, math.Inf(-1), math.Inf(1))
		if err != nil {
			return nil, err
		}
		if maxDelta < eps {
			break
		}
	}
	reg.Counter("fusion.em_iterations").Add(int64(iters))
	reg.Counter("fusion.em_runs").Inc()
	return ci.buildResult(conf, ci.accuracyMap(trust), iters), nil
}
