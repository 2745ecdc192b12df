package fusion

import (
	"cmp"
	"math"
	"slices"
	"strings"

	"repro/internal/data"
	"repro/internal/parallel"
)

// Copy-direction inference: once a pair is believed dependent, decide
// who copies whom. Following the VLDB'09 analysis, the robust
// asymmetry is a *consistency* one: the original's accuracy is the same
// on shared items and on items it alone covers, whereas the copier's
// shared-item accuracy is inherited from the original and so diverges
// from the accuracy of its own independent remainder. A secondary
// signal applies when one side's claims are (nearly) a subset of the
// other's — the lazy-copier case — where the original covers more.

// DirectedCopy is an inferred copy edge with confidence.
type DirectedCopy struct {
	From string // the copier
	To   string // the original
	P    float64
	// Evidence components, exposed for inspection.
	CoverageSignal    float64 // positive when To covers more (subset copier)
	DiscrepancySignal float64 // positive when From's shared/own accuracy diverges more
}

// InferDirections decides a direction for every source pair whose copy
// posterior is at least minP. truth supplies the current fused
// estimates (for accuracy signals); accuracy the per-source estimates.
// Each source's claims count once per item, its last claim winning.
func InferDirections(cs *data.ClaimSet, copies map[SourcePair]float64,
	truth *Result, accuracy map[string]float64, minP float64) []DirectedCopy {
	if minP <= 0 {
		minP = 0.5
	}
	ci := buildIndex(cs, parallel.Config{Workers: 1})
	lists := parallel.Must(ci.lastClaims())
	truthIdx := ci.truthIndex(truth)
	claimsOf := func(src string) []srcClaim {
		if r, ok := slices.BinarySearch(ci.sources, src); ok {
			return lists[r]
		}
		return nil
	}

	// side returns how far src's accuracy on the items other also claims
	// lies from its accuracy on the rest, and how many rest items it has.
	side := func(src string, l, other []srcClaim) (float64, int) {
		shared := make([]bool, len(ci.items))
		for _, sc := range other {
			shared[sc.item] = true
		}
		var hit, n [2]int // on shared items, on its own
		own := 0
		for _, sc := range l {
			k := 0
			if !shared[sc.item] {
				k, own = 1, own+1
			}
			if tv := truthIdx[sc.item]; tv != noTruth {
				n[k]++
				if tv == sc.val {
					hit[k]++
				}
			}
		}
		rate := func(k int) float64 {
			if n[k] == 0 {
				return accOrDefault(accuracy, src)
			}
			return float64(hit[k]) / float64(n[k])
		}
		return math.Abs(rate(0) - rate(1)), own
	}

	var out []DirectedCopy
	pairs := make([]SourcePair, 0, len(copies))
	for p := range copies {
		pairs = append(pairs, p)
	}
	slices.SortFunc(pairs, func(p, q SourcePair) int { return cmp.Or(strings.Compare(p.A, q.A), strings.Compare(p.B, q.B)) })
	for _, pair := range pairs {
		p := copies[pair]
		if p < minP {
			continue
		}
		a, b := pair.A, pair.B
		la, lb := claimsOf(a), claimsOf(b)
		// Consistency discrepancy: |acc(shared) − acc(own)| per side.
		// The side whose shared-item accuracy diverges from its own-item
		// accuracy inherited those shared values — the copier.
		dA, onlyA := side(a, la, lb)
		dB, onlyB := side(b, lb, la)
		discSignal := dA - dB // positive ⇒ a is the copier

		// Subset-coverage signal, only meaningful when one side has
		// (almost) no independent remainder.
		covA, covB := float64(len(la)), float64(len(lb))
		covSignal := 0.0
		if covA+covB > 0 && (onlyA == 0 || onlyB == 0) {
			covSignal = (covB - covA) / (covA + covB) // positive ⇒ b is the original
		}

		// Positive combined ⇒ a is the copier.
		combined := discSignal + covSignal
		from, to := a, b
		if combined < 0 {
			from, to = b, a
		}
		out = append(out, DirectedCopy{
			From: from, To: to, P: p,
			CoverageSignal: covSignal, DiscrepancySignal: discSignal,
		})
	}
	return out
}
