package fusion

import (
	"context"
	"fmt"
	"math"
	"slices"
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

// Evidence is a claim set laid out flat for the online kernel: no item
// key, no value string, two integers per claim. FuseOnline lays a
// data.ClaimSet out as one; a caller that keeps its claims in this form
// (core.Stream's cluster views) hands it to FuseFlat directly.
type Evidence struct {
	// Sources names the claiming sources; names are distinct. A source
	// no claim refers to is not probed.
	Sources []string
	// Start delimits the items: item i's claims sit at positions
	// Start[i] .. Start[i+1]-1 of Src and Val, in claim-insertion order.
	// It is empty or one longer than the item count.
	Start []int32
	// Src is each claim's source, an index into Sources; Val is the
	// claimed value as its rank among the item's distinct values sorted
	// by Value.Key().
	Src, Val []int32

	distinct []string // AddItem's scratch
}

// Items returns the number of items laid out.
func (ev *Evidence) Items() int { return max(0, len(ev.Start)-1) }

// Reset empties the evidence, keeping its buffers and source table.
func (ev *Evidence) Reset() {
	ev.Start, ev.Src, ev.Val = ev.Start[:0], ev.Src[:0], ev.Val[:0]
}

// AddItem appends one item from its claims in insertion order: claim c
// is source srcs[c] claiming the value whose Value.Key() is keys[c].
func (ev *Evidence) AddItem(srcs []int32, keys []string) {
	if len(ev.Start) == 0 {
		ev.Start = append(ev.Start, 0)
	}
	ev.distinct = append(ev.distinct[:0], keys...)
	sort.Strings(ev.distinct)
	ev.distinct = slices.Compact(ev.distinct)
	ev.Src = append(ev.Src, srcs...)
	for _, k := range keys {
		ev.Val = append(ev.Val, int32(sort.SearchStrings(ev.distinct, k)))
	}
	ev.Start = append(ev.Start, int32(len(ev.Src)))
}

// Append appends every item of other, whose claims name their sources by
// ev's table.
func (ev *Evidence) Append(other *Evidence) {
	if len(ev.Start) == 0 {
		ev.Start = append(ev.Start, 0)
	}
	base := int32(len(ev.Src))
	ev.Src = append(ev.Src, other.Src...)
	ev.Val = append(ev.Val, other.Val...)
	for _, end := range other.Start[min(1, len(other.Start)):] {
		ev.Start = append(ev.Start, base+end)
	}
}

// Fused is the online kernel's verdict on one item.
type Fused struct {
	// Conf is the winner's share of the exponentiated scores.
	Conf float64
	// Val is the winning value's rank, -1 when nothing was claimed.
	Val int32
	// Last is the position of the claim that spells the winner: the
	// last consulted claimant of it. Two Values can share a Key() (one
	// instant in two time zones), so which claim is reported matters.
	Last int32
	// Probes counts the sources consulted before finalising.
	Probes int32
}

// FuseOnline runs the full online protocol and reports probe counts:
// it lays the claim set out flat, runs the kernel and fills the maps.
func (o Online) FuseOnline(cs *data.ClaimSet) (*OnlineResult, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	items := cs.Items()
	ev := &Evidence{Sources: cs.Sources()}
	srcID := make(map[string]int32, len(ev.Sources))
	for i, s := range ev.Sources {
		srcID[s] = int32(i)
	}
	values := make([]data.Value, 0, cs.Len())
	var srcs []int32
	var keys []string
	for _, it := range items {
		srcs, keys = srcs[:0], keys[:0]
		for _, c := range cs.ItemClaims(it) {
			srcs = append(srcs, srcID[c.Source])
			keys = append(keys, c.Value.Key())
			values = append(values, c.Value)
		}
		ev.AddItem(srcs, keys)
	}
	order, fused, err := o.FuseFlat(ev, nil)
	if err != nil {
		return nil, err
	}
	res := &OnlineResult{
		Result: Result{
			Values:         make(map[data.Item]data.Value, len(items)),
			Confidence:     make(map[data.Item]float64, len(items)),
			SourceAccuracy: make(map[string]float64, len(order)),
			Iterations:     1,
		},
		Probes: make(map[data.Item]int, len(items)),
		Order:  order,
	}
	for _, s := range order {
		res.SourceAccuracy[s] = clampF(accOrDefault(o.Accuracy, s), 0.05, 0.95)
	}
	for i, it := range items {
		if f := fused[i]; f.Val >= 0 {
			res.Values[it] = values[f.Last]
			res.Probes[it] = int(f.Probes)
			res.Confidence[it] = f.Conf
		}
	}
	return res, nil
}

// probeTable is what the per-item protocol reads besides the item's own
// claims: the probe order and what is left of it after each position.
type probeTable struct {
	rank   []int32   // Evidence source → position in the probe order
	weight []float64 // by position
	// absRemaining[i] is the sum of |weight| over positions i and later.
	// A source not yet probed with weight w can move the lead-vs-rival
	// gap by at most |w|: a positive weight can go to a rival, a negative
	// one can be taken from the leader by claiming it. (Signed sums let a
	// negative tail shrink the bar below zero and finalise answers those
	// very sources would have overturned.) It never increases with i.
	absRemaining []float64
}

// itemBlock is how many items one parallel task fuses: enough to spread
// the cost of the task's scratch buffers, few enough to balance workers.
const itemBlock = 256

// FuseFlat is the online kernel: the probe protocol over flat evidence.
// Sources are ordered by weight descending, name ascending; an item
// visits only its own claimants, in that order — a source's last claim
// on the item is the one that counts — and is finalised at the first
// probe position after which the leader cannot be overtaken. It returns
// the probe order and one verdict per item, written into out when that
// has the capacity. Items are independent, so they fan out on the worker
// pool a block at a time; the output is identical for any worker count.
func (o Online) FuseFlat(ev *Evidence, out []Fused) ([]string, []Fused, error) {
	if err := o.validate(); err != nil {
		return nil, nil, err
	}
	claims := make([]bool, len(ev.Sources))
	for _, s := range ev.Src {
		claims[s] = true
	}
	type probe struct {
		src    int
		weight float64
	}
	var probes []probe
	for s, ok := range claims {
		if ok {
			probes = append(probes, probe{src: s, weight: o.weightOf(ev.Sources[s])})
		}
	}
	sort.Slice(probes, func(i, j int) bool {
		if probes[i].weight != probes[j].weight {
			return probes[i].weight > probes[j].weight
		}
		return ev.Sources[probes[i].src] < ev.Sources[probes[j].src]
	})
	var order []string
	pt := &probeTable{
		rank:         make([]int32, len(ev.Sources)),
		weight:       make([]float64, len(probes)),
		absRemaining: make([]float64, len(probes)+1),
	}
	for i, p := range probes {
		order = append(order, ev.Sources[p.src])
		pt.rank[p.src] = int32(i)
		pt.weight[i] = p.weight
	}
	for i := len(probes) - 1; i >= 0; i-- {
		pt.absRemaining[i] = pt.absRemaining[i+1] + math.Abs(pt.weight[i])
	}

	n := ev.Items()
	if cap(out) < n {
		out = make([]Fused, n)
	}
	out = out[:n]
	err := parallel.ForEach(parallel.Config{Workers: o.Workers, Ctx: o.Ctx}, (n+itemBlock-1)/itemBlock, func(b int) {
		var sc itemScratch
		for i := b * itemBlock; i < min(n, (b+1)*itemBlock); i++ {
			out[i] = pt.fuseItem(ev, i, &sc)
		}
	})
	if err != nil {
		return nil, nil, err
	}
	return order, out, nil
}

// itemScratch is one task's reusable per-item state.
type itemScratch struct {
	claimants []uint64  // probe position <<32 | claim position
	score     []float64 // by value rank
	last      []int32   // by value rank: its last consulted claim, -1 while it has none
}

// fuseItem runs the protocol for item i. Between two of the item's
// claimants the scores do not move while the bar absRemaining only
// falls, so the termination test is made once per gap, against the
// gap's lowest bar, and only a gap that passes is searched for the
// probe position that finalised.
func (pt *probeTable) fuseItem(ev *Evidence, i int, sc *itemScratch) Fused {
	lo, hi := ev.Start[i], ev.Start[i+1]
	sc.claimants = sc.claimants[:0]
	nv := 0
	for c := lo; c < hi; c++ {
		sc.claimants = append(sc.claimants, uint64(pt.rank[ev.Src[c]])<<32|uint64(c))
		nv = max(nv, int(ev.Val[c])+1)
	}
	slices.Sort(sc.claimants)
	sc.score, sc.last = sc.score[:0], sc.last[:0]
	for v := 0; v < nv; v++ {
		sc.score, sc.last = append(sc.score, 0), append(sc.last, -1)
	}
	all := int32(len(pt.weight))
	for j, packed := range sc.claimants {
		pos, next := int32(packed>>32), all
		if j+1 < len(sc.claimants) {
			next = int32(sc.claimants[j+1] >> 32)
		}
		if next == pos {
			continue // an earlier claim of a source that claims again
		}
		c := int32(uint32(packed))
		sc.score[ev.Val[c]] += pt.weight[pos]
		sc.last[ev.Val[c]] = c
		// The rival floors at 0: a value nobody has claimed yet starts there.
		lead, second := sc.topTwo()
		if lead < 0 {
			continue
		}
		if gap := sc.score[lead] - math.Max(second, 0); gap > pt.absRemaining[next] {
			for !(gap > pt.absRemaining[pos+1]) {
				pos++
			}
			return Fused{Conf: sc.confidence(lead), Val: int32(lead), Last: sc.last[lead], Probes: pos + 1}
		}
	}
	// Never finalised early: every source was consulted, whether or not
	// it holds a claim on this item.
	if lead, _ := sc.topTwo(); lead >= 0 {
		return Fused{Conf: sc.confidence(lead), Val: int32(lead), Last: sc.last[lead], Probes: all}
	}
	return Fused{Val: -1, Last: -1}
}

// topTwo returns the leading value rank (-1 when no value has a claim
// yet) and the runner-up's score. Ranks follow the sorted keys, so
// walking them in order with a strict > gives a tie to the lowest key.
func (sc *itemScratch) topTwo() (lead int, second float64) {
	best := math.Inf(-1)
	lead = -1
	for v, s := range sc.score {
		if sc.last[v] < 0 {
			continue
		}
		if s > best {
			second = best
			best, lead = s, v
		} else if s > second {
			second = s
		}
	}
	if math.IsInf(second, -1) {
		second = 0
	}
	return lead, second
}

// confidence normalises the leader's exponentiated score over the
// claimed values, accumulating in rank — sorted key — order.
func (sc *itemScratch) confidence(lead int) float64 {
	var z, l float64
	for v, s := range sc.score {
		if sc.last[v] < 0 {
			continue
		}
		e := math.Exp(s)
		z += e
		if v == lead {
			l = e
		}
	}
	if z == 0 {
		return 0
	}
	return l / z
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
