package fusion

import (
	"math"
	"slices"

	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// claimIndex is the claim table laid out for the EM — the fusion-stage
// analogue of blocking.Engine and similarity.FeatureIndex. Items keep the
// table's first-appearance order, sources are ranked by ID, and each
// item's values are laid out contiguously in sorted-key order, so the EM
// state (vote scores, posteriors, accuracies) lives in flat slices
// indexed by dense uint32 ranks. Every accumulation an algorithm performs
// over the index walks a slice whose order is fixed at build time, which
// is what makes the parallel E/M steps bit-deterministic for any worker
// count.
type claimIndex struct {
	cfg parallel.Config

	items   []data.Item // item rank → item, first-appearance order
	sources []string    // source rank → source ID, sorted

	// Value columns: item i's distinct values occupy the global index
	// range [valOff[i], valOff[i+1]), sorted by value key within the
	// item. valVals holds the canonical Value (first one claimed).
	valOff  []int
	valVals []data.Value
	valItem []uint32 // global value index → owning item rank

	// Support lists: value v's claiming sources occupy
	// supSrc[supOff[v]:supOff[v+1]] in claim insertion order (a source
	// appears once per claim).
	supOff []int
	supSrc []uint32

	// Per-source claim lists: source s's claims occupy
	// srcVal[srcOff[s]:srcOff[s+1]] as global value indices, in claim
	// insertion order — the M-step accumulation order.
	srcOff []int
	srcVal []uint32
}

// buildIndex lays the claim table out for the EM. It is integer work
// over the table's columns: values move to their item's slot plus their
// key rank, and the support and per-source lists are stable counting
// sorts of the claims, so insertion order holds within each list by
// construction. Only ranking the sources compares strings.
func buildIndex(cs *data.ClaimSet, cfg parallel.Config) *claimIndex {
	t := cs.Columns()
	ci := &claimIndex{cfg: cfg, items: t.Items, sources: cs.Sources()}
	srcRank := make([]uint32, len(t.Sources))
	for s, name := range t.Sources {
		r, _ := slices.BinarySearch(ci.sources, name)
		srcRank[s] = uint32(r)
	}

	// Spellings of one key share its slot; the first claimed is canonical.
	owner := make([]uint32, len(t.Values))
	ci.valOff = make([]int, len(t.Items)+1)
	for c, v := range t.Val {
		owner[v] = uint32(t.Item[c])
		ci.valOff[owner[v]+1] = max(ci.valOff[owner[v]+1], int(t.Rank[v])+1)
	}
	for i := range t.Items {
		ci.valOff[i+1] += ci.valOff[i]
	}
	nv := ci.valOff[len(t.Items)]
	ci.valVals, ci.valItem = make([]data.Value, nv), make([]uint32, nv)
	pos := make([]uint32, len(t.Values)) // table value → global value index
	for v := len(owner) - 1; v >= 0; v-- {
		p := ci.valOff[owner[v]] + int(t.Rank[v])
		pos[v], ci.valVals[p], ci.valItem[p] = uint32(p), t.Values[v], owner[v]
	}

	val, src := make([]uint32, len(t.Val)), make([]uint32, len(t.Src))
	for c := range t.Val {
		val[c], src[c] = pos[t.Val[c]], srcRank[t.Src[c]]
	}
	var order []int32
	ci.supOff, order = data.GroupBy(val, nv)
	ci.supSrc = make([]uint32, len(order))
	for e, c := range order {
		ci.supSrc[e] = src[c]
	}
	ci.srcOff, order = data.GroupBy(src, len(ci.sources))
	ci.srcVal = make([]uint32, len(order))
	for e, c := range order {
		ci.srcVal[e] = val[c]
	}
	if reg := obs.OrDefault(cfg.Obs); reg != nil {
		reg.Counter("fusion.items").Add(int64(len(ci.items)))
		reg.Counter("fusion.sources").Add(int64(len(ci.sources)))
		reg.Counter("fusion.values").Add(int64(len(ci.valVals)))
	}
	return ci
}

// mStep re-estimates every source's score as the mean of its claims'
// value scores, summed in claim insertion order and bounded to [lo, hi];
// sources are independent, each writing only its own slot. It returns
// the largest change, reduced on the calling goroutine — so the
// "fusion.em_delta" Dist's running sum is bit-deterministic — and
// recorded with the "fusion.em_final_delta" gauge.
func (ci *claimIndex) mStep(reg *obs.Registry, score, acc []float64, lo, hi float64) (float64, error) {
	delta := make([]float64, len(acc)+1) // a spare 0: the largest of no change is 0
	if err := parallel.ForEach(ci.cfg, len(acc), func(s int) {
		from, to := ci.srcOff[s], ci.srcOff[s+1]
		if from == to {
			return
		}
		var sum float64
		for c := from; c < to; c++ {
			sum += score[ci.srcVal[c]]
		}
		next := clampF(sum/float64(to-from), lo, hi)
		delta[s] = math.Abs(next - acc[s])
		acc[s] = next
	}); err != nil {
		return 0, err
	}
	maxDelta := slices.Max(delta)
	reg.Dist("fusion.em_delta").Observe(maxDelta)
	reg.Gauge("fusion.em_final_delta").Set(maxDelta)
	return maxDelta, nil
}

// softmaxRange normalises scores[lo:hi] into post[lo:hi]. The
// normalizer z accumulates in index order — within an item that is
// sorted value-key order — so posteriors are bit-deterministic (the fix
// for the map-iteration softmax the engine replaced).
func softmaxRange(scores, post []float64, lo, hi int) {
	if lo >= hi {
		return
	}
	maxS := slices.Max(scores[lo:hi])
	var z float64
	for v := lo; v < hi; v++ {
		e := math.Exp(scores[v] - maxS)
		post[v] = e
		z += e
	}
	for v := lo; v < hi; v++ {
		post[v] /= z
	}
}

// accuracyMap expands a rank-indexed accuracy slice into the map form
// Result exposes.
func (ci *claimIndex) accuracyMap(acc []float64) map[string]float64 {
	m := make(map[string]float64, len(ci.sources))
	for s, a := range acc {
		m[ci.sources[s]] = a
	}
	return m
}

// buildResult assembles a Result from per-value posteriors: for each
// item, the arg-max over its sorted value range with strict > — the
// same lowest-key tie-break the map-based fusers used.
func (ci *claimIndex) buildResult(post []float64, accuracy map[string]float64, iters int) *Result {
	res := &Result{
		Values:         make(map[data.Item]data.Value, len(ci.items)),
		Confidence:     make(map[data.Item]float64, len(ci.items)),
		SourceAccuracy: accuracy,
		Iterations:     iters,
	}
	for i, it := range ci.items {
		bestV, best := -1, -1.0
		for v := ci.valOff[i]; v < ci.valOff[i+1]; v++ {
			if post[v] > best {
				best, bestV = post[v], v
			}
		}
		if bestV >= 0 {
			res.Values[it] = ci.valVals[bestV]
			res.Confidence[it] = best
		}
	}
	return res
}
