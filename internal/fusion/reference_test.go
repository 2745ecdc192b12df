package fusion

import (
	"math"
	"sort"

	"repro/internal/data"
	"repro/internal/parallel"
)

// Map-based reference pieces the engine replaced (claimIndex layout,
// softmaxRange); engine_test.go's reference fusers are built on them.
// Also the reference forms of FuseOnline and FuseWithPrefix.

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

// refFuseWithPrefix is FuseWithPrefix as it was before the prefix became
// zero weights: the consulted sources' claims, plus truth, copied into a
// new claim set and voted on alone.
func refFuseWithPrefix(o Online, cs *data.ClaimSet, k int) (*Result, error) {
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
	if k > len(order) {
		k = len(order)
	}
	allowed := map[string]bool{}
	for _, s := range order[:k] {
		allowed[s] = true
	}
	sub := data.NewClaimSet()
	for _, c := range cs.All() {
		if allowed[c.Source] {
			sub.Add(c)
		}
	}
	for _, it := range cs.Items() {
		if v, ok := cs.Truth(it); ok {
			sub.SetTruth(it, v)
		}
	}
	return WeightedVote{Weights: weightsFor(o, order[:k]), Workers: o.Workers, Ctx: o.Ctx}.Fuse(sub)
}

// refInferDirections is InferDirections as it was on per-source claim
// maps (the last claim on an item wins), kept as its oracle.
func refInferDirections(cs *data.ClaimSet, copies map[SourcePair]float64,
	truth *Result, accuracy map[string]float64, minP float64) []DirectedCopy {
	if minP <= 0 {
		minP = 0.5
	}
	claimOf := map[string]map[data.Item]string{}
	for _, s := range cs.Sources() {
		m := map[data.Item]string{}
		for _, cl := range cs.SourceClaims(s) {
			m[cl.Item] = cl.Value.Key()
		}
		claimOf[s] = m
	}
	correctRate := func(src string, only map[data.Item]bool) float64 {
		hit, n := 0, 0
		for it, v := range claimOf[src] {
			if only != nil && !only[it] {
				continue
			}
			tv, ok := truth.Values[it]
			if !ok {
				continue
			}
			n++
			if tv.Key() == v {
				hit++
			}
		}
		if n == 0 {
			return accOrDefault(accuracy, src)
		}
		return float64(hit) / float64(n)
	}

	var out []DirectedCopy
	pairs := make([]SourcePair, 0, len(copies))
	for p := range copies {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].A != pairs[j].A {
			return pairs[i].A < pairs[j].A
		}
		return pairs[i].B < pairs[j].B
	})
	for _, pair := range pairs {
		p := copies[pair]
		if p < minP {
			continue
		}
		a, b := pair.A, pair.B
		shared := map[data.Item]bool{}
		onlyA := map[data.Item]bool{}
		for it := range claimOf[a] {
			if _, ok := claimOf[b][it]; ok {
				shared[it] = true
			} else {
				onlyA[it] = true
			}
		}
		onlyB := map[data.Item]bool{}
		for it := range claimOf[b] {
			if !shared[it] {
				onlyB[it] = true
			}
		}
		// Consistency discrepancy: |acc(shared) − acc(own)| per side.
		// The side whose shared-item accuracy diverges from its own-item
		// accuracy inherited those shared values — the copier.
		dA := absF(correctRate(a, shared) - correctRate(a, onlyA))
		dB := absF(correctRate(b, shared) - correctRate(b, onlyB))
		discSignal := dA - dB // positive ⇒ a is the copier

		// Subset-coverage signal, only meaningful when one side has
		// (almost) no independent remainder.
		covA, covB := float64(len(claimOf[a])), float64(len(claimOf[b]))
		covSignal := 0.0
		if covA+covB > 0 && (len(onlyA) == 0 || len(onlyB) == 0) {
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

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
