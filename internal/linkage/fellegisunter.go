package linkage

import (
	"fmt"
	"math"

	"repro/internal/data"
	"repro/internal/similarity"
)

// FellegiSunter is the classic probabilistic record-linkage model: each
// candidate pair is reduced to a binary agreement vector over comparison
// fields; the model holds per-field conditional agreement probabilities
// m_i = P(agree_i | match) and u_i = P(agree_i | non-match) plus the
// match prior. Parameters are estimated without labels by
// expectation-maximisation over the candidate pairs (Winkler's
// unsupervised EM). Decisions threshold the match posterior.
type FellegiSunter struct {
	Comparator *similarity.RecordComparator
	// AgreeAt binarises field similarity: sim >= AgreeAt counts as
	// agreement. Default 0.8.
	AgreeAt float64
	// Posterior decision threshold. Default 0.9.
	Threshold float64

	m, u  []float64 // per-field conditional probabilities
	prior float64   // P(match)
}

// NewFellegiSunter returns an untrained model with sensible defaults.
func NewFellegiSunter(c *similarity.RecordComparator) *FellegiSunter {
	return &FellegiSunter{Comparator: c, AgreeAt: 0.8, Threshold: 0.9}
}

// comparator exposes the comparator whose field vectors (agreement
// vectors during EM training and posterior scoring) read the cached
// per-record features.
func (fs *FellegiSunter) comparator() *similarity.RecordComparator { return fs.Comparator }

// agreementVector binarises the comparator's field scores: 1 = agree,
// 0 = disagree, -1 = not comparable (missing from both). scratch, when
// non-nil, must have length len(Fields()) and is reused for the raw
// scores.
func (fs *FellegiSunter) agreementVector(a, b *data.Record, scratch []float64) []int {
	if scratch == nil {
		scratch = make([]float64, len(fs.Comparator.Fields()))
	}
	fs.Comparator.FieldScoresInto(scratch, a, b)
	out := make([]int, len(scratch))
	for i, s := range scratch {
		switch {
		case s < 0:
			out[i] = -1
		case s >= fs.AgreeAt:
			out[i] = 1
		default:
			out[i] = 0
		}
	}
	return out
}

// Train runs EM over the candidate pairs. iterations defaults to 20
// when <= 0. It returns an error when there are no fields or no pairs.
func (fs *FellegiSunter) Train(d *data.Dataset, candidates []data.Pair, iterations int) error {
	k := len(fs.Comparator.Fields())
	if k == 0 {
		return fmt.Errorf("linkage: comparator has no fields")
	}
	if len(candidates) == 0 {
		return fmt.Errorf("linkage: no candidate pairs to train on")
	}
	if iterations <= 0 {
		iterations = 20
	}
	ids := PairSlice(candidates).IDs()
	recs := make([]*data.Record, len(ids))
	for i, id := range ids {
		recs[i] = d.Record(id)
	}
	PrepareComparatorIndex(fs.Comparator, recs, 1)

	scratch := make([]float64, k)
	vectors := make([][]int, 0, len(candidates))
	for _, p := range candidates {
		a, b := d.Record(p.A), d.Record(p.B)
		if a == nil || b == nil {
			continue
		}
		vectors = append(vectors, fs.agreementVector(a, b, scratch))
	}
	if len(vectors) == 0 {
		return fmt.Errorf("linkage: candidates reference no known records")
	}

	// Initialisation: matches agree often (m=0.9); the non-match
	// agreement rate u is seeded from the data. Candidates are mostly
	// non-matches, so the empirical per-field agreement rate r ≈
	// prior·m + (1−prior)·u; solving for u with the assumed prior makes
	// the two mixture components identifiable from the first E-step.
	fs.prior = 0.1
	fs.m = make([]float64, k)
	fs.u = make([]float64, k)
	agreeN := make([]float64, k)
	seenN := make([]float64, k)
	for _, vec := range vectors {
		for i, a := range vec {
			if a < 0 {
				continue
			}
			seenN[i]++
			if a == 1 {
				agreeN[i]++
			}
		}
	}
	for i := 0; i < k; i++ {
		fs.m[i] = 0.9
		rate := 0.1
		if seenN[i] > 0 {
			rate = agreeN[i] / seenN[i]
		}
		u := (rate - fs.prior*fs.m[i]) / (1 - fs.prior)
		fs.u[i] = clamp(u, 0.01, 0.8)
	}

	const eps = 1e-4
	for iter := 0; iter < iterations; iter++ {
		// E-step: posterior match probability per vector.
		post := make([]float64, len(vectors))
		for vi, vec := range vectors {
			pm, pu := fs.prior, 1-fs.prior
			for i, a := range vec {
				switch a {
				case 1:
					pm *= fs.m[i]
					pu *= fs.u[i]
				case 0:
					pm *= 1 - fs.m[i]
					pu *= 1 - fs.u[i]
				}
			}
			if pm+pu == 0 {
				post[vi] = fs.prior
			} else {
				post[vi] = pm / (pm + pu)
			}
		}
		// M-step.
		var sumPost float64
		mNum := make([]float64, k)
		mDen := make([]float64, k)
		uNum := make([]float64, k)
		uDen := make([]float64, k)
		for vi, vec := range vectors {
			g := post[vi]
			sumPost += g
			for i, a := range vec {
				if a < 0 {
					continue
				}
				mDen[i] += g
				uDen[i] += 1 - g
				if a == 1 {
					mNum[i] += g
					uNum[i] += 1 - g
				}
			}
		}
		fs.prior = clamp(sumPost/float64(len(vectors)), eps, 1-eps)
		for i := 0; i < k; i++ {
			if mDen[i] > 0 {
				fs.m[i] = clamp(mNum[i]/mDen[i], eps, 1-eps)
			}
			if uDen[i] > 0 {
				fs.u[i] = clamp(uNum[i]/uDen[i], eps, 1-eps)
			}
		}
		// Keep the components identified: the "match" class is the one
		// with higher agreement rates. Swap if EM drifted mirror-image.
		if meanSlice(fs.m) < meanSlice(fs.u) {
			fs.m, fs.u = fs.u, fs.m
			fs.prior = clamp(1-fs.prior, eps, 1-eps)
		}
	}
	return nil
}

// Posterior returns the model's match probability for a pair.
func (fs *FellegiSunter) Posterior(a, b *data.Record) float64 {
	if fs.m == nil {
		return 0
	}
	pm, pu := fs.prior, 1-fs.prior
	for i, ag := range fs.agreementVector(a, b, nil) {
		switch ag {
		case 1:
			pm *= fs.m[i]
			pu *= fs.u[i]
		case 0:
			pm *= 1 - fs.m[i]
			pu *= 1 - fs.u[i]
		}
	}
	if pm+pu == 0 {
		return 0
	}
	return pm / (pm + pu)
}

// LogLikelihoodRatio returns the FS match weight sum_i log2(m_i/u_i)
// over agreeing fields plus log2((1-m_i)/(1-u_i)) over disagreeing
// ones — the classical decision score.
func (fs *FellegiSunter) LogLikelihoodRatio(a, b *data.Record) float64 {
	if fs.m == nil {
		return math.Inf(-1)
	}
	var w float64
	for i, ag := range fs.agreementVector(a, b, nil) {
		switch ag {
		case 1:
			w += math.Log2(fs.m[i] / fs.u[i])
		case 0:
			w += math.Log2((1 - fs.m[i]) / (1 - fs.u[i]))
		}
	}
	return w
}

// Match implements Matcher using the posterior threshold.
func (fs *FellegiSunter) Match(a, b *data.Record) (float64, bool) {
	p := fs.Posterior(a, b)
	return p, p >= fs.Threshold
}

// Params exposes the trained parameters (copies) for inspection.
func (fs *FellegiSunter) Params() (m, u []float64, prior float64) {
	return append([]float64(nil), fs.m...), append([]float64(nil), fs.u...), fs.prior
}

func clamp(x, lo, hi float64) float64 {
	switch {
	case x < lo:
		return lo
	case x > hi:
		return hi
	}
	return x
}

func meanSlice(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
