package fusion

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/data"
	"repro/internal/parallel"
)

// CopyDetector estimates, for every pair of overlapping sources, the
// posterior probability that one copies the other, following the
// Bayesian analysis of Dong, Berti-Équille & Srivastava (VLDB'09): the
// tell-tale signal is agreement on *false* values — independent sources
// agree on the truth often but on any particular false value rarely.
type CopyDetector struct {
	// Alpha is the prior probability of copying. Default 0.1.
	Alpha float64
	// C is the per-item copy rate of a copier. Default 0.8.
	C float64
	// N is the number of false values per item. Default 10.
	N float64
	// MinOverlap: pairs sharing fewer items are not scored. Default 5.
	MinOverlap int
	// IgnoreTruth collapses the agree-on-true / agree-on-false
	// distinction into plain agreement. Used for the bootstrap pass:
	// when the current truth estimate may itself be corrupted by a
	// colluding majority, truth-conditioned counting mislabels honest
	// agreement as false-value collusion, whereas pure
	// agreement/disagreement still separates perfect duplicators (no
	// disagreements at all) from independent sources (independent
	// mistakes force disagreements).
	IgnoreTruth bool
	// Workers bounds the pair-scoring worker pool (0 = NumCPU); output
	// is identical for any value.
	Workers int
}

func (cd CopyDetector) params() (alpha, c, n float64, minOv int) {
	n = cd.N
	if n <= 1 {
		n = 10
	}
	return probOr(cd.Alpha, 0.1), probOr(cd.C, 0.8), n, orDefault(cd.MinOverlap, 5)
}

// SourcePair is an unordered pair of source IDs (A < B).
type SourcePair struct{ A, B string }

// NewSourcePair canonicalises order.
func NewSourcePair(a, b string) SourcePair {
	if b < a {
		a, b = b, a
	}
	return SourcePair{A: a, B: b}
}

// Truth sentinels for the interned detection pass.
const (
	noTruth        = ^uint32(0)     // no ground estimate for the item
	truthUnclaimed = ^uint32(0) - 1 // estimate exists but matches no claimed value
)

// Detect returns the posterior copy probability per overlapping source
// pair, given the current fused truth estimate and source accuracies.
// The O(S²·overlap) pair loop runs on parallel.ForEachPair over the
// claimIndex; per-pair agreement counts are integers, so the posteriors
// are deterministic for any worker count.
func (cd CopyDetector) Detect(cs *data.ClaimSet, truth *Result, accuracy map[string]float64) map[SourcePair]float64 {
	return parallel.Must(cd.detectOn(buildIndex(cs, parallel.Config{Workers: cd.Workers}), truth, accuracy))
}

// srcClaim is one deduplicated claim of a source: the item rank and the
// global value index claimed.
type srcClaim struct{ item, val uint32 }

// truthIndex resolves a truth estimate per item rank: the global value
// index of the item's value keyed like it, truthUnclaimed when no claim
// is, or noTruth when the item has no estimate (or truth is nil).
func (ci *claimIndex) truthIndex(truth *Result) []uint32 {
	idx := make([]uint32, len(ci.items))
	for i, it := range ci.items {
		idx[i] = noTruth
		if truth == nil {
			continue
		}
		if tv, ok := truth.Values[it]; ok {
			idx[i] = truthUnclaimed
			for v := ci.valOff[i]; v < ci.valOff[i+1]; v++ {
				if ci.valVals[v].SameKey(tv) {
					idx[i] = uint32(v)
				}
			}
		}
	}
	return idx
}

// lastClaims lists each source's claims sorted by item, keeping only the
// last claim a source makes about an item ("a source's last claim
// wins").
func (ci *claimIndex) lastClaims() ([][]srcClaim, error) {
	lists := make([][]srcClaim, len(ci.sources))
	return lists, parallel.ForEach(ci.cfg, len(ci.sources), func(s int) {
		lo, hi := ci.srcOff[s], ci.srcOff[s+1]
		lst := make([]srcClaim, 0, hi-lo)
		for c := lo; c < hi; c++ {
			v := ci.srcVal[c]
			lst = append(lst, srcClaim{item: ci.valItem[v], val: v})
		}
		sort.SliceStable(lst, func(a, b int) bool { return lst[a].item < lst[b].item })
		ded := lst[:0]
		for i, sc := range lst {
			if i+1 < len(lst) && lst[i+1].item == sc.item {
				continue
			}
			ded = append(ded, sc)
		}
		lists[s] = ded
	})
}

func (cd CopyDetector) detectOn(ci *claimIndex, truth *Result, accuracy map[string]float64) (map[SourcePair]float64, error) {
	alpha, c, n, minOv := cd.params()
	cfg := ci.cfg
	nSrc := len(ci.sources)
	if cd.IgnoreTruth {
		truth = nil
	}
	truthIdx := ci.truthIndex(truth)
	lists, err := ci.lastClaims()
	if err != nil {
		return nil, err
	}

	// Score every pair; each writes only its own slot.
	nPairs := nSrc * (nSrc - 1) / 2
	post := make([]float64, nPairs)
	scored := make([]bool, nPairs)
	if err := parallel.ForEachPair(cfg, nSrc, func(k, i, j int) {
		kt, kf, kd := 0, 0, 0
		li, lj := lists[i], lists[j]
		for a, b := 0, 0; a < len(li) && b < len(lj); {
			switch {
			case li[a].item < lj[b].item:
				a++
			case li[a].item > lj[b].item:
				b++
			default:
				v1, v2 := li[a].val, lj[b].val
				switch {
				case v1 != v2:
					kd++
				case truthIdx[li[a].item] == noTruth:
					kt++ // truth-free: count as generic agreement
				case v1 == truthIdx[li[a].item]:
					kt++
				default:
					kf++
				}
				a++
				b++
			}
		}
		if kt+kf+kd < minOv {
			return
		}
		a1 := defaultAcc(accuracy, ci.sources[i])
		a2 := defaultAcc(accuracy, ci.sources[j])
		// Independent-agreement probabilities.
		pt := a1 * a2
		pf := (1 - a1) * (1 - a2) / n
		if cd.IgnoreTruth {
			pt += pf // generic agreement combines both channels
		}
		pd := 1 - pt - pf
		if pd < 1e-9 {
			pd = 1e-9
		}
		// Copier-agreement probabilities (copy with rate c, else
		// behave independently).
		ct := c + (1-c)*pt
		cf := c + (1-c)*pf
		cdiff := (1 - c) * pd

		logIndep := float64(kt)*math.Log(pt) + float64(kf)*math.Log(pf) + float64(kd)*math.Log(pd)
		logCopy := float64(kt)*math.Log(ct) + float64(kf)*math.Log(cf) + float64(kd)*math.Log(cdiff)
		// Posterior via log-sum-exp.
		lc := math.Log(alpha) + logCopy
		li2 := math.Log(1-alpha) + logIndep
		m := math.Max(lc, li2)
		post[k] = math.Exp(lc-m) / (math.Exp(lc-m) + math.Exp(li2-m))
		scored[k] = true
	}); err != nil {
		return nil, err
	}

	out := map[SourcePair]float64{}
	k := 0
	for i := 0; i < nSrc; i++ {
		for j := i + 1; j < nSrc; j++ {
			if scored[k] {
				out[NewSourcePair(ci.sources[i], ci.sources[j])] = post[k]
			}
			k++
		}
	}
	return out, nil
}

func defaultAcc(accuracy map[string]float64, s string) float64 {
	if a, ok := accuracy[s]; ok {
		return clampF(a, 0.05, 0.95)
	}
	return 0.7
}

// ACCUCOPY interleaves ACCU fusion with copy detection: fuse, detect
// copying from agreement-on-false-values, down-weight dependent votes,
// and re-fuse — the full AccuCopy loop. The claim set is laid out once
// and the same index backs every fuse and detect pass.
type ACCUCOPY struct {
	Accu     ACCU
	Detector CopyDetector
	// OuterIterations of the fuse→detect loop. Default 3.
	OuterIterations int
	// DisableBootstrap skips the truth-free uniform-prior first
	// detection pass and detects against converged ACCU estimates from
	// the start — the E17 ablation arm. Colluding majorities then evade
	// detection (their agreement is rated unsurprising by the corrupted
	// accuracy estimates).
	DisableBootstrap bool
}

// Name implements Fuser.
func (ACCUCOPY) Name() string { return "accucopy" }

// Fuse implements Fuser.
func (ac ACCUCOPY) Fuse(cs *data.ClaimSet) (*Result, error) { return ac.fuse(ac.Accu.index(cs)) }

func (ac ACCUCOPY) fuse(ci *claimIndex) (*Result, error) {
	outer := orDefault(ac.OuterIterations, 3)
	_, c, _, _ := ac.Detector.params()

	accu := ac.Accu
	res, err := accu.fuseOn(ci, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("fusion: accucopy initial pass: %w", err)
	}
	for iter := 0; iter < outer; iter++ {
		// The first detection pass uses uniform prior accuracies: when
		// a colluding bloc dominates the consensus, accuracy estimates
		// calibrated against that consensus rate the bloc as
		// near-perfect and its total agreement stops looking
		// suspicious. Uncalibrated priors keep the agreement signal.
		accIn := res.SourceAccuracy
		det := ac.Detector
		if iter == 0 && !ac.DisableBootstrap {
			_, acc0, _, _ := accu.params()
			accIn = map[string]float64{}
			for _, s := range ci.sources {
				accIn[s] = acc0
			}
			det.IgnoreTruth = true
		}
		copies, err := det.detectOn(ci, res, accIn)
		if err != nil {
			return nil, fmt.Errorf("fusion: accucopy detect pass %d: %w", iter+1, err)
		}
		disc, err := buildDiscounts(ci, copies, res.SourceAccuracy, c)
		if err != nil {
			return nil, fmt.Errorf("fusion: accucopy discount pass %d: %w", iter+1, err)
		}
		res, err = accu.fuseOn(ci, disc, nil)
		if err != nil {
			return nil, fmt.Errorf("fusion: accucopy pass %d: %w", iter+1, err)
		}
	}
	res.Iterations = outer
	return res, nil
}

// CopyProbabilities runs the full loop and returns the final pairwise
// copy posteriors alongside the fused result.
func (ac ACCUCOPY) CopyProbabilities(cs *data.ClaimSet) (*Result, map[SourcePair]float64, error) {
	ci := ac.Accu.index(cs)
	res, err := ac.fuse(ci)
	if err != nil {
		return nil, nil, err
	}
	copies, err := ac.Detector.detectOn(ci, res, res.SourceAccuracy)
	return res, copies, err
}

// buildDiscounts computes, per support entry, the probability that the
// claimant's vote is independent: among the claimants of the same value,
// ordered by descending accuracy (the presumed copy direction), each
// vote is discounted by the probability that its source copied from any
// preceding claimant. The result is aligned with ci.supSrc; values
// compute in parallel, each writing only its own entries.
func buildDiscounts(ci *claimIndex, copies map[SourcePair]float64,
	accuracy map[string]float64, copyRate float64) ([]float64, error) {
	acc := make([]float64, len(ci.sources))
	for s, name := range ci.sources {
		acc[s] = defaultAcc(accuracy, name)
	}
	disc := make([]float64, len(ci.supSrc))
	return disc, parallel.ForEach(ci.cfg, len(ci.valVals), func(v int) {
		claimants := slices.Clone(ci.supSrc[ci.supOff[v]:ci.supOff[v+1]])
		// Source ranks are in ID order, so they break accuracy ties as IDs would.
		slices.SortFunc(claimants, func(a, b uint32) int {
			if acc[a] != acc[b] {
				return cmp.Compare(acc[b], acc[a])
			}
			return cmp.Compare(a, b)
		})
		for idx, s := range claimants {
			indep := 1.0
			for _, t := range claimants[:idx] {
				indep *= 1 - copyRate*copies[NewSourcePair(ci.sources[s], ci.sources[t])]
			}
			// A source claiming the value twice sorts next to itself and is
			// no copy of itself, so each of its entries gets the same
			// discount.
			for e := ci.supOff[v]; e < ci.supOff[v+1]; e++ {
				if ci.supSrc[e] == s {
					disc[e] = indep
				}
			}
		}
	})
}
