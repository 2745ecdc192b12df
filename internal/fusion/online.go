package fusion

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/data"
	"repro/internal/parallel"
)

// Online implements online data fusion (Liu, Dong & Srivastava,
// surveyed under the tutorial's Velocity/Veracity discussion): sources
// are probed one at a time in decreasing estimated-accuracy order, and
// a data item's answer is finalised early once the accumulated vote
// lead of its current top value exceeds the maximum weight the
// remaining sources could contribute — returning correct answers after
// consulting only a fraction of the sources.
type Online struct {
	// Accuracy estimates per source (e.g. from a prior ACCU run).
	// Sources absent from the map default to 0.7.
	Accuracy map[string]float64
	// N is the assumed number of false values (ACCU vote weighting).
	// Only N == 0 means "unset" and takes the default 10; any positive
	// value — including fractional values and N = 1, which reduces the
	// weight to the plain log-odds ln(a/(1-a)) — is honoured as given.
	// Negative N is rejected by Fuse/FuseOnline/FuseWithPrefix.
	N float64
	// Workers bounds the per-item probing worker pool (0 = NumCPU);
	// output is identical for any value.
	Workers int
	// Ctx cancels the probing fan-out at chunk boundaries; nil never
	// cancels.
	Ctx context.Context
}

// OnlineResult extends Result with probing statistics.
type OnlineResult struct {
	Result
	// Probes[item] = number of sources consulted before finalising.
	Probes map[data.Item]int
	// Order is the probe order used (descending estimated accuracy).
	Order []string
}

// Name implements Fuser.
func (Online) Name() string { return "online" }

// Fuse implements Fuser (discarding probing statistics).
func (o Online) Fuse(cs *data.ClaimSet) (*Result, error) {
	or, err := o.FuseOnline(cs)
	if err != nil {
		return nil, err
	}
	return &or.Result, nil
}

// validate rejects unusable configurations. Only N == 0 is "unset";
// negative N has no interpretation under the ACCU weight model (the
// log argument n·a/(1-a) would flip sign).
func (o Online) validate() error {
	if o.N < 0 {
		return fmt.Errorf("fusion: online N = %v is negative (0 means the default 10)", o.N)
	}
	return nil
}

// weightOf is the ACCU log-odds vote weight of a source. Note the
// weight is negative when n·a/(1-a) < 1 — a source so unreliable its
// vote counts against its own claim — which is why early termination
// reasons about absolute remaining weight, not the signed sum.
func (o Online) weightOf(src string) float64 {
	n := o.N
	if n == 0 {
		n = 10
	}
	a := 0.7
	if v, ok := o.Accuracy[src]; ok {
		a = v
	}
	a = clampF(a, 0.05, 0.95)
	return math.Log(n * a / (1 - a))
}

// FuseOnline runs the full online protocol and reports probe counts.
// Items are probed independently, so the per-item loop fans out on the
// worker pool; each item writes only its own slot and the result maps
// assemble sequentially in item order.
func (o Online) FuseOnline(cs *data.ClaimSet) (*OnlineResult, error) {
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

// FuseWithPrefix fuses consulting only the first k sources of the
// accuracy order — the anytime curve's x-axis.
func (o Online) FuseWithPrefix(cs *data.ClaimSet, k int) (*Result, error) {
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

func weightsFor(o Online, sources []string) map[string]float64 {
	w := map[string]float64{}
	for _, s := range sources {
		w[s] = o.weightOf(s)
	}
	return w
}

func accOrDefault(m map[string]float64, s string) float64 {
	if v, ok := m[s]; ok {
		return v
	}
	return 0.7
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
