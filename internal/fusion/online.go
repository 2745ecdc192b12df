package fusion

import (
	"context"
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
	// N is the assumed number of false values (ACCU vote weighting),
	// under ACCU's rule: only 0 means unset (the default 10), and a
	// negative N is an error. N = 1 gives the plain log-odds ln(a/(1-a)).
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

// validate rejects a negative N (see checkN).
func (o Online) validate() error {
	_, err := checkN("online", o.N)
	return err
}

// weightOf is the ACCU log-odds vote weight of a source. Note the
// weight is negative when n·a/(1-a) < 1 — a source so unreliable its
// vote counts against its own claim — which is why early termination
// reasons about absolute remaining weight, not the signed sum.
func (o Online) weightOf(src string) float64 {
	n, _ := checkN("online", o.N)
	a := defaultAcc(o.Accuracy, src)
	return math.Log(n * a / (1 - a))
}

// Fused is the online kernel's verdict on one item.
type Fused struct {
	// Conf is the winner's share of the exponentiated scores.
	Conf float64
	// Val is the winning value's rank, -1 when nothing was claimed.
	Val int32
	// Last is the view position of the claim that spells the winner: the
	// last consulted claimant of it. Two Values can share a Key() (one
	// instant in two time zones), so which claim is reported matters.
	Last int32
	// Probes counts the sources consulted before finalising.
	Probes int32
}

// FuseOnline runs the full online protocol and reports probe counts:
// it runs the kernel over the claim table's item view and fills the
// maps, reporting each winner as its last consulted claimant spelt it.
func (o Online) FuseOnline(cs *data.ClaimSet) (*OnlineResult, error) {
	view, claim := cs.ByItem()
	order, fused, err := o.FuseFlat(&view, nil)
	if err != nil {
		return nil, err
	}
	t := cs.Columns()
	res := &OnlineResult{Result: Result{
		Values:         make(map[data.Item]data.Value, len(t.Items)),
		Confidence:     make(map[data.Item]float64, len(t.Items)),
		SourceAccuracy: make(map[string]float64, len(order)),
		Iterations:     1,
	}, Probes: make(map[data.Item]int, len(t.Items)), Order: order}
	for _, s := range order {
		res.SourceAccuracy[s] = defaultAcc(o.Accuracy, s)
	}
	for i, it := range t.Items {
		if f := fused[i]; f.Val >= 0 {
			res.Values[it] = t.Values[t.Val[claim[f.Last]]]
			res.Probes[it] = int(f.Probes)
			res.Confidence[it] = f.Conf
		}
	}
	return res, nil
}

// probeTable is what the per-item protocol reads besides the item's own
// claims: the probe order and what is left of it after each position.
type probeTable struct {
	rank   []int32   // view source → position in the probe order
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

// FuseFlat is the online kernel: the probe protocol over a claim table's
// item view (ClaimSet.ByItem, or such views appended). Sources are
// ordered by weight descending, name ascending; an item visits only its
// own claimants, in that order — a source's last claim on the item is
// the one that counts — and is finalised at the first probe position
// after which the leader cannot be overtaken. It returns the probe order
// and one verdict per item, written into out when that has the capacity.
// Items are independent, so they fan out on the worker pool a block at a
// time; the output is identical for any worker count.
func (o Online) FuseFlat(view *data.ItemView, out []Fused) ([]string, []Fused, error) {
	if err := o.validate(); err != nil {
		return nil, nil, err
	}
	order, pt := o.probeTable(view)
	n := max(0, len(view.Start)-1)
	if cap(out) < n {
		out = make([]Fused, n)
	}
	out = out[:n]
	err := parallel.ForEach(parallel.Config{Workers: o.Workers, Ctx: o.Ctx}, (n+itemBlock-1)/itemBlock, func(b int) {
		var sc itemScratch
		for i := b * itemBlock; i < min(n, (b+1)*itemBlock); i++ {
			out[i] = pt.fuseItem(view, i, &sc)
		}
	})
	if err != nil {
		return nil, nil, err
	}
	return order, out, nil
}

// probeTable orders the sources that claim anything in view by weight
// descending, name ascending.
func (o Online) probeTable(view *data.ItemView) ([]string, *probeTable) {
	claims := make([]bool, len(view.Sources))
	for _, s := range view.Src {
		claims[s] = true
	}
	type probe struct {
		src    int
		weight float64
	}
	var probes []probe
	for s, ok := range claims {
		if ok {
			probes = append(probes, probe{src: s, weight: o.weightOf(view.Sources[s])})
		}
	}
	sort.Slice(probes, func(i, j int) bool {
		if probes[i].weight != probes[j].weight {
			return probes[i].weight > probes[j].weight
		}
		return view.Sources[probes[i].src] < view.Sources[probes[j].src]
	})
	var order []string
	pt := &probeTable{
		rank:         make([]int32, len(view.Sources)),
		weight:       make([]float64, len(probes)),
		absRemaining: make([]float64, len(probes)+1),
	}
	for i, p := range probes {
		order = append(order, view.Sources[p.src])
		pt.rank[p.src] = int32(i)
		pt.weight[i] = p.weight
	}
	for i := len(probes) - 1; i >= 0; i-- {
		pt.absRemaining[i] = pt.absRemaining[i+1] + math.Abs(pt.weight[i])
	}
	return order, pt
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
func (pt *probeTable) fuseItem(view *data.ItemView, i int, sc *itemScratch) Fused {
	sc.claimants = sc.claimants[:0]
	nv := 0
	for c := view.Start[i]; c < view.Start[i+1]; c++ {
		sc.claimants = append(sc.claimants, uint64(pt.rank[view.Src[c]])<<32|uint64(c))
		nv = max(nv, int(view.Val[c])+1)
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
		sc.score[view.Val[c]] += pt.weight[pos]
		sc.last[view.Val[c]] = c
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
// accuracy order — the anytime curve's x-axis. It is a weighted vote
// over the whole set in which the sources past the prefix weigh 0: an
// exact zero changes no sum, a value none of the prefix claims never
// beats the initial best of 0, and an item none of them claims gets no
// value — exactly the vote over the prefix's claims alone.
func (o Online) FuseWithPrefix(cs *data.ClaimSet, k int) (*Result, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	view, _ := cs.ByItem()
	order, _ := o.probeTable(&view)
	k = min(k, len(order))
	w := weightsFor(o, order[:k])
	for _, s := range order[k:] {
		w[s] = 0
	}
	return WeightedVote{Weights: w, Workers: o.Workers, Ctx: o.Ctx}.Fuse(cs)
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
