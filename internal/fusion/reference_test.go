package fusion

import (
	"math"
	"sort"

	"repro/internal/data"
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
