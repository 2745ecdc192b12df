package schema

import (
	"context"
	"math"
	"runtime"
	"sort"

	"repro/internal/data"
	"repro/internal/parallel"
	"repro/internal/similarity"
)

// MatchEvidence scores the correspondence between two source attributes
// from one kind of evidence; scores live in [0,1]. Aligner.Align calls
// it from several goroutines at once, so it must be a pure read of its
// inputs and of whatever it closes over.
type MatchEvidence func(a, b *Profile) float64

// NameSimilarity compares attribute names with token Jaccard softened
// by Jaro-Winkler (handles "weight" vs "item weight" vs "wt").
func NameSimilarity(a, b *Profile) float64 {
	j := similarity.Jaccard(a.Attr, b.Attr)
	jw := similarity.JaroWinkler(a.Attr, b.Attr)
	// Monge-Elkan is directional ("weight" ⊂ "item weight" scores high
	// one way only); symmetrise with max so evidence is order-free.
	me := math.Max(
		similarity.MongeElkan(a.Attr, b.Attr, nil),
		similarity.MongeElkan(b.Attr, a.Attr, nil),
	)
	return math.Max(j, math.Max(0.8*jw, 0.9*me))
}

// ValueOverlap compares the observed value distributions: Jaccard over
// distinct value keys for categorical attributes, distribution overlap
// for numeric ones, kind mismatch scores 0.
func ValueOverlap(a, b *Profile) float64 {
	return valueOverlap(a, b, a.DominantKind(), b.DominantKind())
}

// valueOverlap is ValueOverlap given the two dominant kinds.
func valueOverlap(a, b *Profile, ka, kb data.ValueKind) float64 {
	if ka != kb {
		return 0
	}
	if ka == data.KindNumber {
		return numericOverlap(a, b)
	}
	inter, union := 0, 0
	for v := range a.Values {
		if _, ok := b.Values[v]; ok {
			inter++
		}
	}
	union = len(a.Values) + len(b.Values) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// numericOverlap measures how much two numeric attributes' ranges
// overlap, via a Gaussian approximation: 1 when means coincide relative
// to pooled spread, decaying to 0.
func numericOverlap(a, b *Profile) float64 {
	if a.NumCount == 0 || b.NumCount == 0 {
		return 0
	}
	sa, sb := a.NumStd(), b.NumStd()
	spread := math.Max(sa+sb, 1e-9)
	z := math.Abs(a.NumMean-b.NumMean) / spread
	return math.Exp(-z * z / 2)
}

// TokenOverlap compares the token distributions of string values —
// complementary to exact value overlap when formats differ slightly.
func TokenOverlap(a, b *Profile) float64 {
	if len(a.TokenFreq) == 0 || len(b.TokenFreq) == 0 {
		return 0
	}
	inter := 0
	for tok := range a.TokenFreq {
		if _, ok := b.TokenFreq[tok]; ok {
			inter++
		}
	}
	union := len(a.TokenFreq) + len(b.TokenFreq) - inter
	return float64(inter) / float64(union)
}

// Combined blends the evidence functions with fixed weights: names are
// suggestive, instances decisive. Attributes from the same source never
// match (within-source schemas are assumed consistent, as in the
// tutorial's local-homogeneity observation).
func Combined(a, b *Profile) float64 {
	if a.Source == b.Source {
		return 0
	}
	return combine(NameSimilarity(a, b), ValueOverlap(a, b), TokenOverlap(a, b))
}

// combine weighs name similarity against the stronger instance signal.
func combine(name, val, tok float64) float64 {
	inst := math.Max(val, tok)
	return 0.4*name + 0.6*inst
}

// LinkageEvidence builds an instance-level evidence function from a
// record clustering: two attributes correspond when, on records linked
// to the same entity, they frequently carry equal (or numerically
// proportional — handled by transform discovery) values. This is the
// "linkage before alignment" move the tutorial advocates for
// identifier-rich domains.
//
// The tables are flat n×n slices over the view's dense attribute IDs;
// the unordered pair (lo, hi) owns cell lo*n+hi.
type LinkageEvidence struct {
	cols *Columns
	// agree[k] / total[k] over co-linked record pairs.
	agree, total []uint32
	// stability[k] ∈ [0,1]: for numeric attribute pairs, how consistent
	// the value ratio is across co-linked records. A stable ratio far
	// from 1 is a unit conversion — still a correspondence.
	stability []float64
}

// maxRatioClusters caps the ratio samples kept per attribute pair: the
// first 64 entity clusters, in cluster order, that yield one.
const maxRatioClusters = 64

// evidenceShard is the scan's output over one contiguous cluster range.
type evidenceShard struct {
	agree, total []uint32
	ratios       *ratioTable
}

// NewLinkageEvidence scans intra-cluster record pairs of the view and
// accumulates cross-source agreement statistics for every pair of
// profiled attributes. The clusters are split into one contiguous,
// pair-count-balanced range per worker; each range fills its own tables
// and the ranges are merged in cluster order. Counts are integers and
// the ratio rule (first ratio per cluster, first 64 clusters) is defined
// by cluster order, so the result is the same for any worker count.
// Cancellation is observed between clusters.
func NewLinkageEvidence(ctx context.Context, c *Columns, clusters data.Clustering, workers int) (*LinkageEvidence, error) {
	n := len(c.profiles) // IDs below n have a profile and index the tables
	le := &LinkageEvidence{
		cols:      c,
		agree:     make([]uint32, n*n),
		total:     make([]uint32, n*n),
		stability: make([]float64, n*n),
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	cfg := parallel.Config{Workers: workers, Ctx: ctx}
	ranges := parallel.WeightedRanges(pairWeights(clusters), workers)
	merged := newRatioTable(n * n)
	err := parallel.ReduceShards(cfg, ranges,
		func(_, lo, hi int) *evidenceShard { return le.scan(ctx, clusters, lo, hi) },
		func(_ int, sh *evidenceShard) error {
			// A cancelled scan returns early with partial tables.
			if err := ctx.Err(); err != nil {
				return err
			}
			for k, t := range sh.total {
				le.total[k] += t
				le.agree[k] += sh.agree[k]
			}
			for s, pair := range sh.ratios.pairs {
				merged.extend(pair, sh.ratios.lists[s], maxRatioClusters)
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	// One ratio sample per (attribute pair, entity cluster): multiple
	// record pairs about the same entity share the same true ratio, so
	// counting them separately would let a single popular entity fake
	// cross-entity ratio stability between unrelated attributes.
	for s, pair := range merged.pairs {
		rs := merged.lists[s]
		if len(rs) < 3 {
			continue
		}
		sort.Float64s(rs)
		med := rs[len(rs)/2]
		if med <= 0 {
			continue
		}
		// Fully stable (relative mad 0) → 1; dissolving to 0 at 20% spread.
		st := 1 - medianAbsDev(rs, med)/med/0.2
		if st < 0 {
			st = 0
		}
		le.stability[pair] = st
	}
	return le, nil
}

// pairWeights returns the prefix sums of the clusters' record-pair
// counts, the shard planner's weights for the scan.
func pairWeights(clusters data.Clustering) []int {
	cum := make([]int, len(clusters)+1)
	for i, cl := range clusters {
		cum[i+1] = cum[i] + len(cl)*(len(cl)-1)/2
	}
	return cum
}

// scan accumulates the evidence of clusters [lo, hi).
func (le *LinkageEvidence) scan(ctx context.Context, clusters data.Clustering, lo, hi int) *evidenceShard {
	c, n := le.cols, uint32(len(le.cols.profiles))
	sh := &evidenceShard{
		agree:  make([]uint32, len(le.total)),
		total:  make([]uint32, len(le.total)),
		ratios: newRatioTable(len(le.total)),
	}
	var rows []int32
	for ci := lo; ci < hi; ci++ {
		if ctx.Err() != nil {
			return sh
		}
		rows = c.clusterRows(clusters[ci], rows[:0])
		for i, ra := range rows {
			for _, rb := range rows[i+1:] {
				if c.recs[ra].SourceID == c.recs[rb].SourceID {
					continue
				}
				for _, ca := range c.row(ra) {
					if ca.attr >= n {
						continue
					}
					for _, cb := range c.row(rb) {
						if cb.attr >= n || ca.kind != cb.kind {
							continue
						}
						k, flipped := ca.attr*n+cb.attr, false
						if cb.attr < ca.attr {
							k, flipped = cb.attr*n+ca.attr, true
						}
						sh.total[k]++
						if c.cellsAgree(ra, ca, rb, cb) {
							sh.agree[k]++
						}
						if data.ValueKind(ca.kind) == data.KindNumber && ca.num != 0 && cb.num != 0 {
							r := cb.num / ca.num
							if flipped {
								r = 1 / r // keep ratio oriented lo→hi
							}
							sh.ratios.add(k, ci, r, maxRatioClusters)
						}
					}
				}
			}
		}
	}
	return sh
}

// cellsAgree is a tolerant equality of two cells of equal kind: 2%
// relative tolerance for numbers (absorbing jitter but not unit
// changes), typo tolerance for strings, exact otherwise.
func (c *Columns) cellsAgree(ra int32, a cell, rb int32, b cell) bool {
	switch data.ValueKind(a.kind) {
	case data.KindNumber:
		return numbersAgree(a.num, b.num)
	case data.KindString:
		return stringsAgree(a.str, b.str)
	}
	return c.field(ra, a).Equal(c.field(rb, b))
}

func numbersAgree(a, b float64) bool {
	denom := math.Max(math.Abs(a), math.Abs(b))
	if denom == 0 {
		return true
	}
	return math.Abs(a-b)/denom <= 0.02
}

// stringsAgree tolerates typos; equal strings score exactly 1 under
// Jaro-Winkler, so they skip the computation.
func stringsAgree(a, b string) bool {
	return a == b || similarity.JaroWinkler(a, b) >= 0.93
}

// ratioTable collects at most one value ratio per (attribute pair,
// entity cluster), in cluster order. Pairs are table indexes; only the
// pairs that ever yield a ratio get a list.
type ratioTable struct {
	slot  []int32 // pair → 1 + position in pairs/lists/last; 0 = none yet
	pairs []uint32
	lists [][]float64
	last  []int // cluster that contributed each list's newest sample
}

func newRatioTable(pairs int) *ratioTable { return &ratioTable{slot: make([]int32, pairs)} }

func (t *ratioTable) list(pair uint32) int {
	s := t.slot[pair]
	if s == 0 {
		t.pairs = append(t.pairs, pair)
		t.lists = append(t.lists, nil)
		t.last = append(t.last, -1)
		s = int32(len(t.pairs))
		t.slot[pair] = s
	}
	return int(s - 1)
}

// add records r for pair unless cluster ci already gave the pair a
// ratio or the pair holds limit samples.
func (t *ratioTable) add(pair uint32, ci int, r float64, limit int) {
	s := t.list(pair)
	if t.last[s] == ci || len(t.lists[s]) >= limit {
		return
	}
	t.last[s] = ci
	t.lists[s] = append(t.lists[s], r)
}

// extend appends a later cluster range's samples for pair, up to limit.
func (t *ratioTable) extend(pair uint32, rs []float64, limit int) {
	s := t.list(pair)
	if room := limit - len(t.lists[s]); room < len(rs) {
		rs = rs[:room]
	}
	t.lists[s] = append(t.lists[s], rs...)
}

// support returns the co-linked agreement counts and ratio stability of
// an attribute pair; all zero when either attribute has no dense ID.
func (le *LinkageEvidence) support(a, b SourceAttr) (agree, total, stability float64) {
	n := uint32(len(le.cols.profiles))
	ia, oka := le.cols.ids[a]
	ib, okb := le.cols.ids[b]
	if !oka || !okb || ia >= n || ib >= n {
		return 0, 0, 0
	}
	if ib < ia {
		ia, ib = ib, ia
	}
	k := ia*n + ib
	return float64(le.agree[k]), float64(le.total[k]), le.stability[k]
}

// Score implements MatchEvidence semantics over profiles: the observed
// agreement rate on co-linked records, 0 when below the support floor.
func (le *LinkageEvidence) Score(a, b *Profile) float64 {
	agree, tot, st := le.support(a.SourceAttr, b.SourceAttr)
	if tot < 3 { // insufficient support
		return 0
	}
	s := agree / tot
	// Ratio-stable numeric pairs correspond even when raw values never
	// agree (unit conversions).
	if st > s {
		s = st
	}
	return s
}

// Blend combines linkage evidence with the name+instance Combined
// evidence. The two are complementary rather than averaged: strong
// linkage agreement (or ratio stability) lifts the score even when
// names and distributions look unrelated (unit conversions, opaque
// renames), while strong linkage *disagreement* on well-supported pairs
// vetoes correspondences that names and distributions suggest
// spuriously (distinct numeric attributes with similar ranges).
func (le *LinkageEvidence) Blend(a, b *Profile) float64 {
	if a.Source == b.Source {
		return 0
	}
	c := le.cols.Combined(a, b)
	agree, tot, st := le.support(a.SourceAttr, b.SourceAttr)
	if tot < 5 {
		return c // insufficient co-linked support: fall back
	}
	l := agree / tot
	if st > l {
		l = st
	}
	return le.blendWith(l, c)
}

// BlendAgreementOnly is Blend without the ratio-stability channel —
// the ablation arm of experiment E17.
func (le *LinkageEvidence) BlendAgreementOnly(a, b *Profile) float64 {
	if a.Source == b.Source {
		return 0
	}
	c := le.cols.Combined(a, b)
	agree, tot, _ := le.support(a.SourceAttr, b.SourceAttr)
	if tot < 5 {
		return c
	}
	return le.blendWith(agree/tot, c)
}

// blendWith applies the boost/veto policy to a linkage-evidence level l
// and a Combined fallback c.
func (le *LinkageEvidence) blendWith(l, c float64) float64 {
	switch {
	case l >= 0.4:
		// Mid-accuracy sources agree on a true correspondence well
		// below 100% of the time, so already 40% agreement on
		// co-linked records is strong evidence (chance agreement
		// between unrelated attributes is far lower).
		boosted := 0.45 + 0.55*l
		if boosted > c {
			return boosted
		}
		return c
	case l < 0.15:
		if c > 0.3 {
			return 0.3
		}
		return c
	default:
		return c
	}
}
