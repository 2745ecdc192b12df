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

// codeStream is a RankedBlocker over a fixed code list of whichever
// engine runs it: the test form of a precomputed ranked stream.
type codeStream []uint64

func (c codeStream) Candidates(e *Engine) *CandidateSet { return e.set(c) }
func (c codeStream) Ranked(e *Engine) *CandidateSet     { return e.set(c) }

// rankedCodes runs every blocker's Ranked pass over e and returns the
// code lists.
func rankedCodes(e *Engine, blockers []RankedBlocker) []codeStream {
	out := make([]codeStream, len(blockers))
	for i, b := range blockers {
		out[i] = b.Ranked(e).codes
	}
	return out
}

// fuseCodes fuses fixed code lists on e.
func fuseCodes(e *Engine, k float64, streams []codeStream) *CandidateSet {
	bs := make([]RankedBlocker, len(streams))
	for i, s := range streams {
		bs[i] = s
	}
	return e.FuseRanked(k, bs...)
}
