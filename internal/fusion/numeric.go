package fusion

import (
	"sort"

	"repro/internal/data"
)

// NumericFusion resolves conflicting *numeric* claims, where majority
// voting is the wrong model: independent measurements of a continuous
// quantity rarely agree exactly, so the fused value should be a robust
// location estimate rather than the most frequent exact number. Items
// whose claims are not predominantly numeric fall back to the Fallback
// fuser (majority vote when nil).
type NumericFusion struct {
	// Method selects the estimator: "median" (default, robust to
	// outliers), "mean", or "weighted" (accuracy-weighted mean).
	Method string
	// Weights holds per-source weights for the "weighted" method
	// (e.g. estimated accuracies); missing sources weigh 1.
	Weights map[string]float64
	// Fallback fuses non-numeric items. Default MajorityVote.
	Fallback Fuser
}

// Name implements Fuser.
func (nf NumericFusion) Name() string { return "numeric-" + nf.method() }

func (nf NumericFusion) method() string {
	switch nf.Method {
	case "mean", "weighted":
		return nf.Method
	default:
		return "median"
	}
}

// Fuse implements Fuser.
func (nf NumericFusion) Fuse(cs *data.ClaimSet) (*Result, error) {
	fallback := nf.Fallback
	if fallback == nil {
		fallback = MajorityVote{}
	}
	res := &Result{
		Values:     map[data.Item]data.Value{},
		Confidence: map[data.Item]float64{},
		Iterations: 1,
	}
	// Split items by kind; batch the non-numeric ones for the fallback.
	t := cs.Columns()
	start, order := data.GroupBy(t.Item, len(t.Items))
	nonNumeric := data.NewClaimSet()
	var xs []weighted
	for i, it := range t.Items {
		claims := order[start[i]:start[i+1]]
		xs = xs[:0]
		for _, c := range claims {
			if v := t.Values[t.Val[c]]; v.Kind == data.KindNumber {
				w, ok := nf.Weights[t.Sources[t.Src[c]]]
				if !ok || w <= 0 || nf.method() != "weighted" {
					w = 1
				}
				xs = append(xs, weighted{v: v.Num, w: w})
			}
		}
		if len(xs)*2 <= len(claims) { // not predominantly numeric
			for _, c := range claims {
				nonNumeric.Add(data.Claim{Item: it, Source: t.Sources[t.Src[c]], Value: t.Values[t.Val[c]]})
			}
			continue
		}
		res.Values[it], res.Confidence[it] = nf.fuseNumeric(xs)
	}
	if nonNumeric.Len() > 0 {
		fb, err := fallback.Fuse(nonNumeric)
		if err != nil {
			return nil, err
		}
		for it, v := range fb.Values {
			res.Values[it] = v
			res.Confidence[it] = fb.Confidence[it]
		}
	}
	return res, nil
}

// weighted is one numeric claim and its weight: its source's under the
// "weighted" method when positive, else 1.
type weighted struct{ v, w float64 }

// fuseNumeric estimates an item's value from its numeric claims, which
// it sorts. Confidence reflects concentration: 1 when all claims agree,
// decaying with relative spread (median absolute deviation / |estimate|).
func (nf NumericFusion) fuseNumeric(xs []weighted) (data.Value, float64) {
	sort.Slice(xs, func(i, j int) bool { return xs[i].v < xs[j].v })

	var est float64
	switch nf.method() {
	case "mean", "weighted":
		var sum, wsum float64
		for _, x := range xs {
			sum += x.v * x.w
			wsum += x.w
		}
		est = sum / wsum
	default: // median (weighted by claim multiplicity implicitly)
		est = xs[len(xs)/2].v
		if len(xs)%2 == 0 {
			est = (xs[len(xs)/2-1].v + xs[len(xs)/2].v) / 2
		}
	}

	// Spread-based confidence.
	devs := make([]float64, len(xs))
	for i, x := range xs {
		d := x.v - est
		if d < 0 {
			d = -d
		}
		devs[i] = d
	}
	sort.Float64s(devs)
	mad := devs[len(devs)/2]
	scale := est
	if scale < 0 {
		scale = -scale
	}
	conf := 1.0
	if scale > 0 {
		rel := mad / scale
		conf = 1 / (1 + 10*rel)
	} else if mad > 0 {
		conf = 0.5
	}
	return data.Number(est), conf
}
