package blocking

import (
	"fmt"
	"sort"

	"repro/internal/data"
)

// Blocking-key selection: given candidate key functions and a labelled
// sample (truth match pairs), rank keys by the harmonic mean of pair
// completeness and reduction ratio — automating the key-engineering
// step that otherwise requires domain expertise.

// KeyCandidate names a key function under evaluation.
type KeyCandidate struct {
	Name string
	Key  KeyFunc
	// MaxBlock purges oversized blocks before evaluation (0 = none).
	MaxBlock int
}

// KeyScore is one candidate's evaluation.
type KeyScore struct {
	Name             string
	PairCompleteness float64
	ReductionRatio   float64
	// Score is the harmonic mean of PC and RR (0 when either is 0).
	Score      float64
	Candidates int
}

// SelectKey evaluates each candidate against the labelled sample and
// returns the scores best-first plus the winner's name.
func SelectKey(records []*data.Record, truth []data.Pair, candidates []KeyCandidate) ([]KeyScore, string, error) {
	if len(candidates) == 0 {
		return nil, "", fmt.Errorf("blocking: no key candidates")
	}
	if len(truth) == 0 {
		return nil, "", fmt.Errorf("blocking: key selection needs labelled truth pairs")
	}
	truthSet := map[data.Pair]bool{}
	for _, p := range truth {
		truthSet[p] = true
	}
	total := len(records) * (len(records) - 1) / 2

	eng := NewEngineOpts(records, Opts{})
	scores := make([]KeyScore, 0, len(candidates))
	for _, cand := range candidates {
		pairs := eng.Blocks(cand.Key).Purge(cand.MaxBlock).Pairs()
		hit := 0
		for _, p := range pairs {
			if truthSet[p] {
				hit++
			}
		}
		ks := KeyScore{Name: cand.Name, Candidates: len(pairs)}
		ks.PairCompleteness = float64(hit) / float64(len(truthSet))
		if total > 0 {
			ks.ReductionRatio = 1 - float64(len(pairs))/float64(total)
		}
		if ks.PairCompleteness > 0 && ks.ReductionRatio > 0 {
			ks.Score = 2 * ks.PairCompleteness * ks.ReductionRatio /
				(ks.PairCompleteness + ks.ReductionRatio)
		}
		scores = append(scores, ks)
	}
	if err := eng.Err(); err != nil {
		return nil, "", fmt.Errorf("blocking: key selection: %w", err)
	}
	sort.Slice(scores, func(i, j int) bool {
		if scores[i].Score != scores[j].Score {
			return scores[i].Score > scores[j].Score
		}
		return scores[i].Name < scores[j].Name
	})
	return scores, scores[0].Name, nil
}

// DefaultKeyCandidates returns the standard key-function line-up over
// an attribute — the menu SelectKey usually chooses from.
func DefaultKeyCandidates(attr string) []KeyCandidate {
	return []KeyCandidate{
		{Name: "exact", Key: AttrExactKey(attr), MaxBlock: 200},
		{Name: "prefix3", Key: AttrPrefixKey(attr, 3), MaxBlock: 200},
		{Name: "prefix5", Key: AttrPrefixKey(attr, 5), MaxBlock: 200},
		{Name: "token", Key: TokenKey(attr), MaxBlock: 200},
		{Name: "qgram3", Key: QGramKey(attr, 3), MaxBlock: 200},
		{Name: "soundex", Key: PhoneticKey(attr, "soundex"), MaxBlock: 200},
	}
}
