package temporal

import (
	"math"
	"sort"

	"repro/internal/data"
	"repro/internal/similarity"
)

// LearnDecay estimates per-attribute decay rates from a labelled
// sample: records known to co-refer (e.g. linked by identifiers, or a
// training prefix with ground truth) whose attribute values differ
// across epochs reveal how fast each attribute legitimately evolves.
// The decay rate for an attribute is fitted so that the observed
// disagreement probability at the mean epoch gap matches
// 1-(1-decay)^gap. Attributes never observed disagreeing get decay 0
// (identity-stable); attributes with too little support (fewer than
// minSupport cross-epoch co-referring pairs) are omitted from the map.
func LearnDecay(d *data.Dataset, clusters data.Clustering, minSupport int) map[string]float64 {
	if minSupport <= 0 {
		minSupport = 5
	}
	type acc struct {
		pairs     float64
		disagrees float64
		gapSum    float64
	}
	stats := map[string]*acc{}
	for _, cl := range clusters {
		for i := 0; i < len(cl); i++ {
			for j := i + 1; j < len(cl); j++ {
				ra, rb := d.Record(cl[i]), d.Record(cl[j])
				if ra == nil || rb == nil {
					continue
				}
				gap := math.Abs(EpochOf(ra) - EpochOf(rb))
				if gap == 0 {
					continue // same-epoch disagreement is noise, not drift
				}
				for _, f := range ra.Fields() {
					attr := f.Attr
					if attr == EpochAttr {
						continue
					}
					va, vb := f.Value, rb.Get(attr)
					if vb.IsNull() {
						continue
					}
					st := stats[attr]
					if st == nil {
						st = &acc{}
						stats[attr] = st
					}
					st.pairs++
					st.gapSum += gap
					if !va.Equal(vb) {
						st.disagrees++
					}
				}
			}
		}
	}
	out := map[string]float64{}
	attrs := make([]string, 0, len(stats))
	for a := range stats {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	for _, a := range attrs {
		st := stats[a]
		if int(st.pairs) < minSupport {
			continue
		}
		pDis := st.disagrees / st.pairs
		if pDis <= 0 {
			out[a] = 0
			continue
		}
		if pDis >= 1 {
			pDis = 0.99
		}
		meanGap := st.gapSum / st.pairs
		// Solve pDis = 1 - (1-decay)^meanGap for decay.
		decay := 1 - math.Pow(1-pDis, 1/meanGap)
		out[a] = clamp01(decay)
	}
	return out
}

func clamp01(x float64) float64 {
	switch {
	case x < 0:
		return 0
	case x > 0.95:
		return 0.95
	}
	return x
}

// FitMatcher builds a temporal matcher whose per-attribute decay rates
// are learned from the labelled clusters. Attributes without support
// fall back to defaultDecay.
func FitMatcher(d *data.Dataset, clusters data.Clustering,
	cmp *similarity.RecordComparator, defaultDecay float64) *Matcher {
	m := NewMatcher(cmp)
	m.Decay = defaultDecay
	m.AttrDecay = LearnDecay(d, clusters, 5)
	return m
}
