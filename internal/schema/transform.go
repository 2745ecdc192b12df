package schema

import (
	"context"
	"math"
	"sort"

	"repro/internal/data"
)

// Transform is a discovered value transformation between two source
// attributes: target ≈ Scale × source. Scale 1 means same units.
type Transform struct {
	From, To SourceAttr
	Scale    float64
	Support  int // co-linked record pairs the estimate is based on
}

// DiscoverTransforms inspects co-linked record pairs of the view and,
// for every cross-source numeric attribute pair within the same mediated
// attribute, estimates the multiplicative unit conversion as the median
// value ratio. Pairs with a stable ratio far from 1 are unit
// conversions; ratio ≈ 1 confirms same units. minSupport defaults to 3.
// Cancellation is observed between entity clusters.
func DiscoverTransforms(ctx context.Context, c *Columns, clusters data.Clustering, ms *MediatedSchema, minSupport int) ([]Transform, error) {
	if minSupport <= 0 {
		minSupport = 3
	}
	n := uint32(len(c.attrs))
	mediated := make([]int32, n) // by dense ID: index into ms.Attrs, -1 if unmapped
	for id, sa := range c.attrs {
		mediated[id] = -1
		if idx, ok := ms.Of[sa]; ok {
			mediated[id] = int32(idx)
		}
	}
	// One ratio per (ordered pair, entity cluster): see NewLinkageEvidence
	// for why per-record-pair samples would overweight popular entities.
	ratios := newRatioTable(len(c.attrs) * len(c.attrs))
	// Each member's mapped non-zero numbers, extracted once per cluster
	// rather than once per record pair.
	type number struct {
		attr     uint32
		mediated int32
		num      float64
	}
	var (
		rows []int32
		nums []number
		off  []int // member i's numbers are nums[off[i]:off[i+1]]
	)
	for ci, cl := range clusters {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rows = c.clusterRows(cl, rows[:0])
		nums, off = nums[:0], append(off[:0], 0)
		for _, r := range rows {
			for _, ce := range c.row(r) {
				if data.ValueKind(ce.kind) == data.KindNumber && ce.num != 0 && mediated[ce.attr] >= 0 {
					nums = append(nums, number{ce.attr, mediated[ce.attr], ce.num})
				}
			}
			off = append(off, len(nums))
		}
		for i, ra := range rows {
			for j, rb := range rows {
				if i == j || c.recs[ra].SourceID == c.recs[rb].SourceID {
					continue
				}
				for _, a := range nums[off[i]:off[i+1]] {
					for _, b := range nums[off[j]:off[j+1]] {
						if a.mediated == b.mediated {
							ratios.add(a.attr*n+b.attr, ci, b.num/a.num, math.MaxInt)
						}
					}
				}
			}
		}
	}
	var out []Transform
	for s, pair := range ratios.pairs {
		rs := ratios.lists[s]
		if len(rs) < minSupport {
			continue
		}
		sort.Float64s(rs)
		med := rs[len(rs)/2]
		// Require ratio stability: median absolute deviation small
		// relative to the median.
		mad := medianAbsDev(rs, med)
		if med <= 0 || mad/math.Abs(med) > 0.1 {
			continue
		}
		out = append(out, Transform{From: c.attrs[pair/n], To: c.attrs[pair%n], Scale: med, Support: len(rs)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From.String() < out[j].From.String()
		}
		return out[i].To.String() < out[j].To.String()
	})
	return out, nil
}

func medianAbsDev(rs []float64, med float64) float64 {
	devs := make([]float64, len(rs))
	for i, r := range rs {
		devs[i] = math.Abs(r - med)
	}
	sort.Float64s(devs)
	return devs[len(devs)/2]
}

// Normalizer rewrites records into the mediated schema: local attribute
// names become mediated names, and numeric values are rescaled into the
// cluster's canonical units (the units of the cluster's reference
// attribute — its lexicographically first member).
type Normalizer struct {
	ms    *MediatedSchema
	scale map[SourceAttr]float64 // multiplicative factor into canonical units
}

// NewNormalizer takes, per mediated attribute, the lexicographically
// first member as the reference and keeps the discovered transforms
// that lead into it, so every member that has one is rescaled into the
// reference's units.
func NewNormalizer(ms *MediatedSchema, transforms []Transform) *Normalizer {
	n := &Normalizer{ms: ms, scale: map[SourceAttr]float64{}}
	refs := make([]SourceAttr, len(ms.Attrs))
	for i, ma := range ms.Attrs {
		refs[i] = firstMember(ma)
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

// ApplyAll rewrites the view's dataset into the mediated schema,
// preserving sources, record identity and order. Unmapped attributes
// (including skip attributes like title/pid) pass through unchanged;
// when two fields of a record land on one name, the later in attribute
// order wins.
func (n *Normalizer) ApplyAll(c *Columns) *data.Dataset {
	// Target name and scale by dense ID: one lookup per attribute, not
	// per field.
	name := make([]string, len(c.attrs))
	scale := make([]float64, len(c.attrs))
	for id, sa := range c.attrs {
		name[id] = sa.Attr
		if idx, ok := n.ms.Of[sa]; ok {
			name[id] = n.ms.Attrs[idx].Name
			scale[id] = n.scale[sa]
		}
	}
	out := data.NewDataset()
	for _, s := range c.d.Sources() {
		_ = out.AddSource(s)
	}
	for row, r := range c.recs {
		nr := data.NewRecord(r.ID, r.SourceID)
		nr.EntityID = r.EntityID
		nr.Grow(len(r.Fields()))
		cells := c.row(int32(row))
		for k, f := range r.Fields() {
			ce, v := cells[k], f.Value
			if s := scale[ce.attr]; s != 0 && v.Kind == data.KindNumber {
				v = data.Number(v.Num * s)
			}
			nr.Set(name[ce.attr], v)
		}
		if err := out.AddRecord(nr); err != nil {
			// IDs are preserved from a valid dataset, so this cannot
			// happen; guard loudly in case of misuse.
			panic(err)
		}
	}
	return out
}
