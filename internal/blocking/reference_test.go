package blocking

import "slices"

// FuseRRFCodes is the sequential reference reciprocal-rank-fusion
// kernel: every code scores Σ 1/(k+rank+1) over the streams containing
// it (per code, contributions sum in stream order then ascending
// rank), and the fused order is descending score with ties broken by
// ascending code. Engine.FuseRanked computes the identical result with
// the parallel sharded kernel.
func FuseRRFCodes(k float64, streams ...[]uint64) []uint64 {
	if k <= 0 {
		k = DefaultRRFK
	}
	scores := map[uint64]float64{}
	for _, s := range streams {
		for r, code := range s {
			scores[code] += 1 / (k + float64(r) + 1)
		}
	}
	out := make([]uint64, 0, len(scores))
	for code := range scores {
		out = append(out, code)
	}
	slices.SortFunc(out, func(a, b uint64) int {
		sa, sb := scores[a], scores[b]
		switch {
		case sa > sb:
			return -1
		case sa < sb:
			return 1
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	})
	return out
}
