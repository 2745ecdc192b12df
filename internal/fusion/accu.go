package fusion

import (
	"context"
	"fmt"
	"math"

	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// ACCU is the Bayesian source-accuracy model (AccuVote): assuming each
// item has one true value and N uniformly-likely false values, a source
// with accuracy A contributes vote weight ln(N·A/(1−A)) to the values
// it claims; value posteriors follow from normalising the exponentiated
// vote sums; source accuracies are re-estimated as the mean posterior
// of their claims; iterate to a fixpoint. POPACCU replaces the uniform
// false-value assumption with the observed value popularity.
//
// The EM runs on the claimIndex: the E-step parallelises over
// items (each writes its own posterior range), the M-step over sources
// (each writes its own accuracy slot), and every float accumulation
// walks a fixed slice order, so results are bit-identical for any
// worker count.
type ACCU struct {
	// N is the assumed number of false values per item, under the rule
	// Online follows: only 0 means unset (the default 10), any positive
	// value — N = 1 included — is honoured, and a negative N is an error.
	N float64
	// InitialAccuracy for all sources. Default 0.8.
	InitialAccuracy float64
	// MaxIterations (default 20) and Epsilon (default 1e-4).
	MaxIterations int
	Epsilon       float64
	// Popularity switches to POPACCU false-value modelling: the
	// effective N per item is its observed number of distinct values.
	Popularity bool
	// Workers bounds the EM worker pool (0 = NumCPU). Output is
	// identical for any value.
	Workers int
	// Obs records "fusion." metrics (index sizes, EM iterations and
	// per-iteration convergence deltas) when set.
	Obs *obs.Registry
	// Ctx cancels the EM at chunk boundaries; nil never cancels.
	Ctx context.Context

	// Similarity, when set, enables the AccuSim variant: a value's vote
	// score is boosted by the scores of *similar* values, so "2999" and
	// "2998.5" reinforce each other instead of splitting the vote.
	// SimInfluence (ρ, default 0.5) scales the boost.
	Similarity   func(a, b data.Value) float64
	SimInfluence float64
}

// Name implements Fuser.
func (a ACCU) Name() string {
	if a.Similarity != nil {
		return "accusim"
	}
	if a.Popularity {
		return "popaccu"
	}
	return "accu"
}

// checkN is the one rule for the N of the ACCU weight model, shared by
// ACCU and Online: only 0 means unset and takes the default 10; any
// positive value is honoured as given; a negative N has no
// interpretation (the log argument n·a/(1-a) would flip sign).
func checkN(who string, n float64) (float64, error) {
	switch {
	case n < 0:
		return 0, fmt.Errorf("fusion: %s N = %v is negative (0 means the default 10)", who, n)
	case n == 0:
		return 10, nil
	}
	return n, nil
}

// params resolves defaults.
func (a ACCU) params() (n, acc0 float64, maxIter int, eps float64) {
	n, _ = checkN(a.Name(), a.N)
	return n, probOr(a.InitialAccuracy, 0.8), orDefault(a.MaxIterations, 20), orDefault(a.Epsilon, 1e-4)
}

// orDefault returns x when it is positive, def otherwise.
func orDefault[T int | float64](x, def T) T {
	if x > 0 {
		return x
	}
	return def
}

// probOr returns p when it lies strictly between 0 and 1, def otherwise.
func probOr(p, def float64) float64 {
	if p > 0 && p < 1 {
		return p
	}
	return def
}

// Fuse implements Fuser.
func (a ACCU) Fuse(cs *data.ClaimSet) (*Result, error) {
	return a.fuseOn(a.index(cs), nil, nil)
}

func (a ACCU) index(cs *data.ClaimSet) *claimIndex {
	return buildIndex(cs, parallel.Config{Workers: a.Workers, Obs: a.Obs, Ctx: a.Ctx})
}

// fuseOn runs the EM over a prebuilt index (ACCUCOPY reuses one index
// across its outer passes). disc, when set by ACCUCOPY, holds per
// support entry the claimant's independence probability in [0,1], which
// scales its vote. When snap is non-nil it receives a Result snapshot
// after every iteration — the FuseTrace hook.
func (a ACCU) fuseOn(ci *claimIndex, disc []float64, snap func(*Result)) (*Result, error) {
	n, acc0, maxIter, eps := a.params()
	if _, err := checkN(a.Name(), a.N); err != nil {
		return nil, err
	}
	reg := obs.OrDefault(a.Obs)

	acc := make([]float64, len(ci.sources))
	for s := range acc {
		acc[s] = acc0
	}

	rho := orDefault(a.SimInfluence, 0.5)
	const minAcc, maxAcc = 0.01, 0.99
	nv := len(ci.valVals)
	scores := make([]float64, nv)
	post := make([]float64, nv)
	var adj []float64
	if a.Similarity != nil {
		adj = make([]float64, nv)
	}
	clamped := make([]float64, len(ci.sources))

	iters := 0
	for iter := 0; iter < maxIter; iter++ {
		iters = iter + 1
		// E: value posteriors from accuracies. Items are independent;
		// each writes only its own [valOff[i], valOff[i+1]) range.
		for s := range acc {
			clamped[s] = clampF(acc[s], minAcc, maxAcc)
		}
		if err := parallel.ForEach(ci.cfg, len(ci.items), func(i int) {
			lo, hi := ci.valOff[i], ci.valOff[i+1]
			effN := n
			if a.Popularity {
				if d := float64(hi - lo); d > 1 {
					effN = d
				} else {
					effN = 2
				}
			}
			for v := lo; v < hi; v++ {
				var sum float64
				for e := ci.supOff[v]; e < ci.supOff[v+1]; e++ {
					ca := clamped[ci.supSrc[e]]
					w := math.Log(effN * ca / (1 - ca))
					if disc != nil {
						w *= disc[e]
					}
					sum += w
				}
				scores[v] = sum
			}
			src := scores
			if a.Similarity != nil {
				// AccuSim: each value's score absorbs a ρ-scaled share
				// of the scores of similar values, accumulated in
				// sorted-key order.
				for v := lo; v < hi; v++ {
					boost := 0.0
					for v2 := lo; v2 < hi; v2++ {
						if v2 == v {
							continue
						}
						if sim := a.Similarity(ci.valVals[v], ci.valVals[v2]); sim > 0 {
							boost += sim * scores[v2]
						}
					}
					adj[v] = scores[v] + rho*boost
				}
				src = adj
			}
			softmaxRange(src, post, lo, hi)
		}); err != nil {
			return nil, err
		}
		// M: accuracies from posteriors.
		maxDelta, err := ci.mStep(reg, post, acc, minAcc, maxAcc)
		if err != nil {
			return nil, err
		}
		if snap != nil {
			snap(ci.buildResult(post, ci.accuracyMap(acc), iters))
		}
		if maxDelta < eps {
			break
		}
	}
	reg.Counter("fusion.em_iterations").Add(int64(iters))
	reg.Counter("fusion.em_runs").Inc()
	return ci.buildResult(post, ci.accuracyMap(acc), iters), nil
}

// FuseTrace runs Fuse while recording, after each EM iteration, the
// value produced for every item — used by the convergence experiment
// (E2). The trace's last entry equals the final result. Snapshots are
// captured inside a single EM run, so the cost is one Fuse plus
// O(items) per iteration — not the quadratic re-run-per-prefix the
// first implementation paid.
func (a ACCU) FuseTrace(cs *data.ClaimSet) ([]*Result, error) {
	var trace []*Result
	if _, err := a.fuseOn(a.index(cs), nil, func(r *Result) { trace = append(trace, r) }); err != nil {
		return nil, err
	}
	return trace, nil
}

func clampF(x, lo, hi float64) float64 {
	switch {
	case x < lo:
		return lo
	case x > hi:
		return hi
	}
	return x
}
