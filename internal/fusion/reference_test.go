package fusion

import (
	"math"
	"sort"

	"repro/internal/data"
	"repro/internal/parallel"
)

// Map-based reference pieces the engine replaced (claimIndex layout,
// softmaxRange); engine_test.go's reference fusers are built on them.

// voteCounts tallies, per item, the supporting sources of each distinct
// value key. The canonical value for a key is the first one observed.
type voteCounts struct {
	values   map[string]data.Value
	sources  map[string][]string
	keyOrder []string
}

func tally(claims []data.Claim) *voteCounts {
	vc := &voteCounts{values: map[string]data.Value{}, sources: map[string][]string{}}
	for _, c := range claims {
		k := c.Value.Key()
		if _, seen := vc.values[k]; !seen {
			vc.values[k] = c.Value
			vc.keyOrder = append(vc.keyOrder, k)
		}
		vc.sources[k] = append(vc.sources[k], c.Source)
	}
	return vc
}

// softmax normalises a score map into a probability map, accumulating
// the normalizer in sorted key order so the result is bit-deterministic
// (Go map iteration order is randomised).
func softmax(scores map[string]float64) map[string]float64 {
	if len(scores) == 0 {
		return scores
	}
	keys := make([]string, 0, len(scores))
	for k := range scores {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	maxS := math.Inf(-1)
	for _, k := range keys {
		if s := scores[k]; s > maxS {
			maxS = s
		}
	}
	out := make(map[string]float64, len(scores))
	var z float64
	for _, k := range keys {
		e := math.Exp(scores[k] - maxS)
		out[k] = e
		z += e
	}
	for _, k := range keys {
		out[k] /= z
	}
	return out
}

// referenceFuseOnline is the dense online protocol the flat kernel
// (Online.FuseFlat) replaced, kept as its oracle: string-keyed claim
// maps, every source visited for every item, and the leader re-derived
// by a key sort after each one.
func referenceFuseOnline(o Online, cs *data.ClaimSet) (*OnlineResult, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	order := append([]string(nil), cs.Sources()...)
	sort.Slice(order, func(i, j int) bool {
		wi, wj := o.weightOf(order[i]), o.weightOf(order[j])
		if wi != wj {
			return wi > wj
		}
		return order[i] < order[j]
	})

	// Per-source claim lookup (read-only once built).
	claimOf := map[string]map[data.Item]data.Value{}
	for _, s := range order {
		m := map[data.Item]data.Value{}
		for _, c := range cs.SourceClaims(s) {
			m[c.Item] = c.Value
		}
		claimOf[s] = m
	}
	// Remaining-influence suffix sums: absRemaining[i] = sum of |weight|
	// over order[i:]. A not-yet-probed source with weight w can move the
	// lead-vs-rival gap by at most |w|: a positive-weight source can add
	// w to a rival, and a negative-weight source can *subtract* |w| from
	// the leader by claiming it. Summing signed weights here (the old
	// bound) let a negative-weight tail shrink the bar below zero and
	// finalise answers those very sources would have overturned.
	absRemaining := make([]float64, len(order)+1)
	for i := len(order) - 1; i >= 0; i-- {
		absRemaining[i] = absRemaining[i+1] + math.Abs(o.weightOf(order[i]))
	}

	res := &OnlineResult{
		Result: Result{
			Values:         map[data.Item]data.Value{},
			Confidence:     map[data.Item]float64{},
			SourceAccuracy: map[string]float64{},
		},
		Probes: map[data.Item]int{},
		Order:  order,
	}
	for _, s := range order {
		res.SourceAccuracy[s] = clampF(accOrDefault(o.Accuracy, s), 0.05, 0.95)
	}

	items := cs.Items()
	type probed struct {
		value  data.Value
		conf   float64
		probes int
		found  bool
	}
	outs := make([]probed, len(items))
	if err := parallel.ForEach(parallel.Config{Workers: o.Workers, Ctx: o.Ctx}, len(items), func(idx int) {
		it := items[idx]
		scores := map[string]float64{}
		values := map[string]data.Value{}
		probes := 0
		for i, s := range order {
			// Probes counts sources *consulted*, whether or not they hold
			// a claim for this item: an item that never terminates early
			// reports len(order), not its last claiming source's index.
			probes = i + 1
			if v, ok := claimOf[s][it]; ok {
				k := v.Key()
				scores[k] += o.weightOf(s)
				values[k] = v
			}
			// Early termination: the leader cannot be overtaken even in
			// the worst case over the remaining sources. The rival score
			// floors at 0 because an as-yet-unclaimed value starts there,
			// and remaining influence is the absolute-weight suffix sum
			// (see absRemaining above).
			lead, second := topTwo(scores)
			if lead != "" && scores[lead]-math.Max(second, 0) > absRemaining[i+1] {
				outs[idx] = probed{value: values[lead], conf: confidenceOf(scores, lead), probes: probes, found: true}
				return
			}
		}
		if lead, _ := topTwo(scores); lead != "" {
			outs[idx] = probed{value: values[lead], conf: confidenceOf(scores, lead), probes: probes, found: true}
		}
	}); err != nil {
		return nil, err
	}
	for idx, it := range items {
		if !outs[idx].found {
			continue
		}
		res.Values[it] = outs[idx].value
		res.Probes[it] = outs[idx].probes
		res.Confidence[it] = outs[idx].conf
	}
	res.Iterations = 1
	return res, nil
}

// topTwo returns the leading value key and the runner-up's score.
func topTwo(scores map[string]float64) (lead string, second float64) {
	best := math.Inf(-1)
	second = 0
	keys := make([]string, 0, len(scores))
	for k := range scores {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s := scores[k]
		if s > best {
			second = best
			best, lead = s, k
		} else if s > second {
			second = s
		}
	}
	if math.IsInf(second, -1) {
		second = 0
	}
	return lead, second
}

// confidenceOf normalises the leader's exponentiated score. The
// normalizer accumulates in sorted key order — like softmax, this was a
// map-iteration accumulation whose low bits depended on Go's randomised
// map order.
func confidenceOf(scores map[string]float64, lead string) float64 {
	keys := make([]string, 0, len(scores))
	for k := range scores {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var z, l float64
	for _, k := range keys {
		e := math.Exp(scores[k])
		z += e
		if k == lead {
			l = e
		}
	}
	if z == 0 {
		return 0
	}
	return l / z
}
