package schema

// The parent commit's sequential, map-based implementations of the
// alignment hot path, bodies unchanged (only renamed with a ref prefix):
// string-keyed evidence maps, Record.Attrs() per record pair, and the
// agglomeration that re-sums every live cluster pair each round. They
// are the oracle the interned-column implementations are compared
// against, bit for bit, in oracle_test.go.

import (
	"context"
	"math"
	"sort"

	"repro/internal/data"
	"repro/internal/similarity"
)

// refDominantKind returns the most frequent value kind.
func refDominantKind(p *Profile) data.ValueKind {
	best, bestN := data.KindNull, -1
	// Deterministic: iterate kinds in fixed order.
	for _, k := range []data.ValueKind{data.KindString, data.KindNumber, data.KindBool, data.KindTime} {
		if n := p.Kinds[k]; n > bestN {
			best, bestN = k, n
		}
	}
	return best
}

// refValueOverlap compares the observed value distributions: Jaccard over
// distinct value keys for categorical attributes, distribution overlap
// for numeric ones, kind mismatch scores 0.
func refValueOverlap(a, b *Profile) float64 {
	ka, kb := refDominantKind(a), refDominantKind(b)
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

// refCombined blends the evidence functions with fixed weights: names are
// suggestive, instances decisive. Attributes from the same source never
// match (within-source schemas are assumed consistent, as in the
// tutorial's local-homogeneity observation).
func refCombined(a, b *Profile) float64 {
	if a.Source == b.Source {
		return 0
	}
	name := NameSimilarity(a, b)
	val := refValueOverlap(a, b)
	tok := TokenOverlap(a, b)
	inst := math.Max(val, tok)
	return 0.4*name + 0.6*inst
}

// refLinkageEvidence builds an instance-level evidence function from a
// record clustering: two attributes correspond when, on records linked
// to the same entity, they frequently carry equal (or numerically
// proportional — handled by transform discovery) values. This is the
// "linkage before alignment" move the tutorial advocates for
// identifier-rich domains.
type refLinkageEvidence struct {
	// agree[pairKey] / total[pairKey] over co-linked record pairs.
	agree map[[2]SourceAttr]float64
	total map[[2]SourceAttr]float64
	// stability[pairKey] ∈ [0,1]: for numeric attribute pairs, how
	// consistent the value ratio is across co-linked records. A stable
	// ratio far from 1 is a unit conversion — still a correspondence.
	stability map[[2]SourceAttr]float64
}

// refNewLinkageEvidence scans intra-cluster record pairs and accumulates
// cross-source attribute agreement statistics.
func refNewLinkageEvidence(d *data.Dataset, clusters data.Clustering) *refLinkageEvidence {
	le := &refLinkageEvidence{
		agree:     map[[2]SourceAttr]float64{},
		total:     map[[2]SourceAttr]float64{},
		stability: map[[2]SourceAttr]float64{},
	}
	// One ratio sample per (attribute pair, entity cluster): multiple
	// record pairs about the same entity share the same true ratio, so
	// counting them separately would let a single popular entity fake
	// cross-entity ratio stability between unrelated attributes.
	ratios := map[[2]SourceAttr]map[int]float64{}
	skip := map[string]bool{}
	for _, a := range DefaultSkipAttrs {
		skip[a] = true
	}
	for ci, cl := range clusters {
		for i := 0; i < len(cl); i++ {
			for j := i + 1; j < len(cl); j++ {
				ra, rb := d.Record(cl[i]), d.Record(cl[j])
				if ra == nil || rb == nil || ra.SourceID == rb.SourceID {
					continue
				}
				for _, fa := range ra.Fields() {
					aa, va := fa.Attr, fa.Value
					if skip[aa] {
						continue
					}
					for _, fb := range rb.Fields() {
						ab, vb := fb.Attr, fb.Value
						if skip[ab] {
							continue
						}
						if va.Kind != vb.Kind {
							continue
						}
						k := pairKey(
							SourceAttr{ra.SourceID, aa},
							SourceAttr{rb.SourceID, ab},
						)
						le.total[k]++
						if refValuesAgree(va, vb) {
							le.agree[k]++
						}
						if va.Kind == data.KindNumber && va.Num != 0 && vb.Num != 0 {
							r := vb.Num / va.Num
							if k[0] != (SourceAttr{ra.SourceID, aa}) {
								r = 1 / r // keep ratio oriented k[0]→k[1]
							}
							if ratios[k] == nil {
								ratios[k] = map[int]float64{}
							}
							if _, seen := ratios[k][ci]; !seen && len(ratios[k]) < 64 {
								ratios[k][ci] = r
							}
						}
					}
				}
			}
		}
	}
	for k, byCluster := range ratios {
		if len(byCluster) < 3 {
			continue
		}
		rs := make([]float64, 0, len(byCluster))
		for _, r := range byCluster {
			rs = append(rs, r)
		}
		sort.Float64s(rs)
		med := rs[len(rs)/2]
		if med <= 0 {
			continue
		}
		devs := make([]float64, len(rs))
		for i, r := range rs {
			devs[i] = math.Abs(r-med) / med
		}
		sort.Float64s(devs)
		mad := devs[len(devs)/2]
		// Fully stable (mad 0) → 1; dissolving to 0 at 20% spread.
		s := 1 - mad/0.2
		if s < 0 {
			s = 0
		}
		le.stability[k] = s
	}
	return le
}

// refValuesAgree is a tolerant equality: exact for non-numbers, 2% relative
// tolerance for numbers (absorbing jitter but not unit changes).
func refValuesAgree(a, b data.Value) bool {
	if a.Kind == data.KindNumber && b.Kind == data.KindNumber {
		denom := math.Max(math.Abs(a.Num), math.Abs(b.Num))
		if denom == 0 {
			return true
		}
		return math.Abs(a.Num-b.Num)/denom <= 0.02
	}
	if a.Kind == data.KindString && b.Kind == data.KindString {
		return similarity.JaroWinkler(a.Str, b.Str) >= 0.93
	}
	return a.Equal(b)
}

// Score implements MatchEvidence semantics over profiles: the observed
// agreement rate on co-linked records, 0 when below the support floor.
func (le *refLinkageEvidence) Score(a, b *Profile) float64 {
	k := pairKey(a.SourceAttr, b.SourceAttr)
	tot := le.total[k]
	if tot < 3 { // insufficient support
		return 0
	}
	s := le.agree[k] / tot
	// Ratio-stable numeric pairs correspond even when raw values never
	// agree (unit conversions).
	if st := le.stability[k]; st > s {
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
func (le *refLinkageEvidence) Blend(a, b *Profile) float64 {
	if a.Source == b.Source {
		return 0
	}
	c := refCombined(a, b)
	k := pairKey(a.SourceAttr, b.SourceAttr)
	tot := le.total[k]
	if tot < 5 {
		return c // insufficient co-linked support: fall back
	}
	l := le.agree[k] / tot
	if st := le.stability[k]; st > l {
		l = st
	}
	return le.blendWith(l, c)
}

// BlendAgreementOnly is Blend without the ratio-stability channel —
// the ablation arm of experiment E17.
func (le *refLinkageEvidence) BlendAgreementOnly(a, b *Profile) float64 {
	if a.Source == b.Source {
		return 0
	}
	c := refCombined(a, b)
	k := pairKey(a.SourceAttr, b.SourceAttr)
	tot := le.total[k]
	if tot < 5 {
		return c
	}
	return le.blendWith(le.agree[k]/tot, c)
}

// blendWith applies the boost/veto policy to a linkage-evidence level l
// and a Combined fallback c.
func (le *refLinkageEvidence) blendWith(l, c float64) float64 {
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

// refAlign builds the mediated schema from profiles.
func refAlign(al Aligner, profiles []*Profile) (*MediatedSchema, error) {
	if err := validateProfiles(profiles); err != nil {
		return nil, err
	}
	ctx := al.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	evidence := al.Evidence
	if evidence == nil {
		evidence = refCombined
	}
	threshold := al.Threshold
	if threshold <= 0 {
		threshold = 0.5
	}

	n := len(profiles)
	// Pairwise evidence matrix (symmetric).
	sim := make([][]float64, n)
	for i := range sim {
		sim[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		// The evidence matrix and the agglomeration below dominate
		// alignment wall time, so the row and the round are the
		// cancellation granularity for this stage.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for j := i + 1; j < n; j++ {
			s := evidence(profiles[i], profiles[j])
			sim[i][j], sim[j][i] = s, s
		}
	}

	// Greedy average-linkage agglomeration.
	clusters := make([][]int, n)
	for i := range clusters {
		clusters[i] = []int{i}
	}
	active := make([]bool, n)
	for i := range active {
		active[i] = true
	}
	avgLink := func(a, b []int) float64 {
		var sum float64
		cnt := 0
		for _, i := range a {
			for _, j := range b {
				// Attributes of the same source must not merge.
				if profiles[i].Source == profiles[j].Source {
					return -1
				}
				sum += sim[i][j]
				cnt++
			}
		}
		if cnt == 0 {
			return 0
		}
		return sum / float64(cnt)
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		bestI, bestJ, bestS := -1, -1, threshold
		for i := 0; i < n; i++ {
			if !active[i] {
				continue
			}
			for j := i + 1; j < n; j++ {
				if !active[j] {
					continue
				}
				if s := avgLink(clusters[i], clusters[j]); s >= bestS {
					bestI, bestJ, bestS = i, j, s
				}
			}
		}
		if bestI < 0 {
			break
		}
		clusters[bestI] = append(clusters[bestI], clusters[bestJ]...)
		active[bestJ] = false
	}

	ms := &MediatedSchema{Of: map[SourceAttr]int{}}
	for ci := 0; ci < n; ci++ {
		if !active[ci] {
			continue
		}
		members := clusters[ci]
		ma := &MediatedAttr{Members: map[SourceAttr]float64{}}
		// Membership probability: each member's mean evidence toward the
		// rest of the cluster (1 for singletons).
		for _, i := range members {
			p := 1.0
			if len(members) > 1 {
				var sum float64
				for _, j := range members {
					if i != j {
						sum += sim[i][j]
					}
				}
				p = sum / float64(len(members)-1)
				if p > 1 {
					p = 1
				}
				if p <= 0 {
					p = 0.01
				}
			}
			ma.Members[profiles[i].SourceAttr] = p
		}
		ma.Name = clusterName(profiles, members)
		ms.Attrs = append(ms.Attrs, ma)
	}
	// Deterministic attr order: by name then first member.
	sort.Slice(ms.Attrs, func(i, j int) bool {
		if ms.Attrs[i].Name != ms.Attrs[j].Name {
			return ms.Attrs[i].Name < ms.Attrs[j].Name
		}
		return refFirstMember(ms.Attrs[i]).String() < refFirstMember(ms.Attrs[j]).String()
	})
	for idx, ma := range ms.Attrs {
		for sa := range ma.Members {
			ms.Of[sa] = idx
		}
	}
	return ms, nil
}

func refFirstMember(ma *MediatedAttr) SourceAttr {
	var keys []string
	back := map[string]SourceAttr{}
	for sa := range ma.Members {
		k := sa.String()
		keys = append(keys, k)
		back[k] = sa
	}
	sort.Strings(keys)
	return back[keys[0]]
}

// refDiscoverTransforms estimates unit conversions from co-linked record
// pairs; cancellation is observed between entity clusters.
func refDiscoverTransforms(ctx context.Context, d *data.Dataset, clusters data.Clustering, ms *MediatedSchema, minSupport int) ([]Transform, error) {
	if minSupport <= 0 {
		minSupport = 3
	}
	// One ratio per (pair, entity cluster): see NewLinkageEvidence for
	// why per-record-pair samples would overweight popular entities.
	ratios := map[[2]SourceAttr]map[int]float64{}
	for ci, cl := range clusters {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for i := 0; i < len(cl); i++ {
			for j := 0; j < len(cl); j++ {
				if i == j {
					continue
				}
				ra, rb := d.Record(cl[i]), d.Record(cl[j])
				if ra == nil || rb == nil || ra.SourceID == rb.SourceID {
					continue
				}
				for _, fa := range ra.Fields() {
					aa, va := fa.Attr, fa.Value
					if va.Kind != data.KindNumber || va.Num == 0 {
						continue
					}
					saA := SourceAttr{ra.SourceID, aa}
					idxA, okA := ms.Of[saA]
					if !okA {
						continue
					}
					for _, fb := range rb.Fields() {
						ab, vb := fb.Attr, fb.Value
						if vb.Kind != data.KindNumber || vb.Num == 0 {
							continue
						}
						saB := SourceAttr{rb.SourceID, ab}
						if idxB, okB := ms.Of[saB]; !okB || idxB != idxA {
							continue
						}
						k := [2]SourceAttr{saA, saB}
						if ratios[k] == nil {
							ratios[k] = map[int]float64{}
						}
						if _, seen := ratios[k][ci]; !seen {
							ratios[k][ci] = vb.Num / va.Num
						}
					}
				}
			}
		}
	}
	var out []Transform
	for k, byCluster := range ratios {
		if len(byCluster) < minSupport {
			continue
		}
		rs := make([]float64, 0, len(byCluster))
		for _, r := range byCluster {
			rs = append(rs, r)
		}
		sort.Float64s(rs)
		med := rs[len(rs)/2]
		// Require ratio stability: median absolute deviation small
		// relative to the median.
		mad := medianAbsDev(rs, med)
		if med <= 0 || mad/math.Abs(med) > 0.1 {
			continue
		}
		out = append(out, Transform{From: k[0], To: k[1], Scale: med, Support: len(rs)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From.String() < out[j].From.String()
		}
		return out[i].To.String() < out[j].To.String()
	})
	return out, nil
}

// refNormalizer rewrites records into the mediated schema: local attribute
// names become mediated names, and numeric values are rescaled into the
// cluster's canonical units (the units of the cluster's reference
// attribute — the member with the largest support).
type refNormalizer struct {
	ms    *MediatedSchema
	scale map[SourceAttr]float64 // multiplicative factor into canonical units
}

// refNewNormalizer picks, per mediated attribute, the reference member (the
// one with the most co-linked ratio support toward others, falling back
// to the lexicographically first member) and inverts the discovered
// transforms to rescale every member into the reference's units.
func refNewNormalizer(ms *MediatedSchema, transforms []Transform) *refNormalizer {
	n := &refNormalizer{ms: ms, scale: map[SourceAttr]float64{}}
	// Reference member per cluster: lexicographically first (stable and
	// simple; transforms make the choice immaterial).
	refs := make([]SourceAttr, len(ms.Attrs))
	for i, ma := range ms.Attrs {
		refs[i] = refFirstMember(ma)
	}
	// scale[sa] converts sa's units into its cluster reference's units.
	for _, t := range transforms {
		idx, ok := ms.Of[t.From]
		if !ok {
			continue
		}
		// t: To ≈ Scale × From  ⇒  From-units → To-units factor = Scale.
		if refs[idx] == t.To {
			n.scale[t.From] = t.Scale
		}
	}
	return n
}

// Apply rewrites one record into the mediated schema. Unmapped
// attributes (including skip attributes like title/pid) pass through
// unchanged.
func (n *refNormalizer) Apply(r *data.Record) *data.Record {
	out := data.NewRecord(r.ID, r.SourceID)
	out.EntityID = r.EntityID
	for _, f := range r.Fields() {
		a, v := f.Attr, f.Value
		sa := SourceAttr{r.SourceID, a}
		idx, ok := n.ms.Of[sa]
		if !ok {
			out.Set(a, v)
			continue
		}
		if v.Kind == data.KindNumber {
			if s, ok := n.scale[sa]; ok && s != 0 {
				v = data.Number(v.Num * s)
			}
		}
		out.Set(n.ms.Attrs[idx].Name, v)
	}
	return out
}

// ApplyAll rewrites a whole dataset, preserving sources.
func (n *refNormalizer) ApplyAll(d *data.Dataset) *data.Dataset {
	out := data.NewDataset()
	for _, s := range d.Sources() {
		_ = out.AddSource(s)
	}
	for _, r := range d.Records() {
		if err := out.AddRecord(n.Apply(r)); err != nil {
			// IDs are preserved from a valid dataset, so this cannot
			// happen; guard loudly in case of misuse.
			panic(err)
		}
	}
	return out
}
