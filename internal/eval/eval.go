// Package eval provides the evaluation substrate for every pipeline
// stage: pairwise precision/recall/F1 for linkage, reduction ratio and
// pair completeness/quality for blocking, cluster-comparison metrics,
// and value-level accuracy for fusion. All metrics consume generator
// ground truth; nothing here feeds back into integration decisions.
package eval

import (
	"fmt"
	"math"

	"repro/internal/data"
)

// PRF bundles precision, recall and their harmonic mean.
type PRF struct {
	Precision float64
	Recall    float64
	F1        float64
	TP        int
	FP        int
	FN        int
}

// String renders the metric triple compactly.
func (m PRF) String() string {
	return fmt.Sprintf("P=%.4f R=%.4f F1=%.4f (tp=%d fp=%d fn=%d)", m.Precision, m.Recall, m.F1, m.TP, m.FP, m.FN)
}

// NewPRF computes the triple from raw counts, defining 0/0 as 0.
func NewPRF(tp, fp, fn int) PRF {
	m := PRF{TP: tp, FP: fp, FN: fn}
	if tp+fp > 0 {
		m.Precision = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		m.Recall = float64(tp) / float64(tp+fn)
	}
	if m.Precision+m.Recall > 0 {
		m.F1 = 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
	}
	return m
}

// PairSet turns pair slices into a set for comparison.
func PairSet(pairs []data.Pair) map[data.Pair]bool {
	s := make(map[data.Pair]bool, len(pairs))
	for _, p := range pairs {
		s[p] = true
	}
	return s
}

// Pairs scores predicted match pairs against truth pairs.
func Pairs(predicted, truth []data.Pair) PRF {
	ps, ts := PairSet(predicted), PairSet(truth)
	tp := 0
	for p := range ps {
		if ts[p] {
			tp++
		}
	}
	return NewPRF(tp, len(ps)-tp, len(ts)-tp)
}

// Clusters scores a predicted clustering against ground truth using
// pairwise precision/recall over intra-cluster pairs — the standard
// record-linkage clustering metric.
func Clusters(predicted, truth data.Clustering) PRF {
	return Pairs(predicted.Pairs(), truth.Pairs())
}

// BlockingQuality describes a candidate-pair set produced by blocking,
// relative to ground-truth match pairs and the total number of records.
type BlockingQuality struct {
	Candidates       int     // |candidate pairs|
	TotalPairs       int     // n*(n-1)/2
	ReductionRatio   float64 // 1 - candidates/total
	PairCompleteness float64 // recall of true matches among candidates
	PairQuality      float64 // precision of true matches among candidates
}

// String renders the blocking quality summary.
func (b BlockingQuality) String() string {
	return fmt.Sprintf("cands=%d RR=%.4f PC=%.4f PQ=%.6f", b.Candidates, b.ReductionRatio, b.PairCompleteness, b.PairQuality)
}

// Blocking computes blocking quality for candidate pairs against truth
// pairs over n records.
func Blocking(candidates, truth []data.Pair, n int) BlockingQuality {
	total := n * (n - 1) / 2
	cs, ts := PairSet(candidates), PairSet(truth)
	hit := 0
	for p := range cs {
		if ts[p] {
			hit++
		}
	}
	q := BlockingQuality{Candidates: len(cs), TotalPairs: total}
	if total > 0 {
		q.ReductionRatio = 1 - float64(len(cs))/float64(total)
	}
	if len(ts) > 0 {
		q.PairCompleteness = float64(hit) / float64(len(ts))
	}
	if len(cs) > 0 {
		q.PairQuality = float64(hit) / float64(len(cs))
	}
	return q
}

// FusionAccuracy is the fraction of data items whose fused value equals
// the ground truth. Items without known truth are skipped; it returns
// the accuracy and the number of items evaluated.
func FusionAccuracy(fused map[data.Item]data.Value, cs *data.ClaimSet) (float64, int) {
	correct, n := 0, 0
	for it, v := range fused {
		truth, ok := cs.Truth(it)
		if !ok {
			continue
		}
		n++
		if v.Equal(truth) {
			correct++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return float64(correct) / float64(n), n
}

// VariationOfInformation computes the VI distance between two
// clusterings over the same element universe (lower is better, 0 means
// identical). Elements present in only one clustering are ignored.
func VariationOfInformation(a, b data.Clustering) float64 {
	aa, ba := a.Assignment(), b.Assignment()
	common := []string{}
	for id := range aa {
		if _, ok := ba[id]; ok {
			common = append(common, id)
		}
	}
	n := float64(len(common))
	if n == 0 {
		return 0
	}
	sizeA := map[int]float64{}
	sizeB := map[int]float64{}
	joint := map[[2]int]float64{}
	for _, id := range common {
		i, j := aa[id], ba[id]
		sizeA[i]++
		sizeB[j]++
		joint[[2]int{i, j}]++
	}
	var vi float64
	for k, nij := range joint {
		pij := nij / n
		pi := sizeA[k[0]] / n
		qj := sizeB[k[1]] / n
		vi -= pij * (math.Log(pij/pi) + math.Log(pij/qj))
	}
	return vi
}
