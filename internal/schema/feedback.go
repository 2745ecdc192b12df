package schema

import (
	"fmt"
	"sort"
)

// Pay-as-you-go feedback (the dataspace programme the tutorial surveys
// for Variety at scale): rather than perfecting the mediated schema up
// front, the system asks a human (or crowd) to confirm or reject its
// most *uncertain* attribute correspondences, folds the answers back in
// as hard constraints, and re-aligns — converging to a correct schema
// with far fewer questions than labelling every pair.

// Oracle answers correspondence questions; true means the two source
// attributes denote the same concept. Tests and experiments implement
// it from generator ground truth; deployments from crowdsourcing.
type Oracle func(a, b SourceAttr) bool

// Feedback runs the ask-and-realign loop.
type Feedback struct {
	Evidence  MatchEvidence
	Threshold float64 // alignment threshold; default 0.5
	// Budget is the maximum number of oracle questions. Default 20.
	Budget int
}

// FeedbackResult reports the loop's outcome.
type FeedbackResult struct {
	Schema    *MediatedSchema
	Questions int
	// Asked lists the question pairs in order with the oracle's answers.
	Asked []QuestionRecord
}

// QuestionRecord is one oracle interaction.
type QuestionRecord struct {
	A, B   SourceAttr
	Answer bool
}

// Run aligns, asks the Budget most uncertain pairs (evidence closest to
// the decision threshold), pins the answers as hard constraints and
// re-aligns. It returns the constrained schema.
func (fb Feedback) Run(profiles []*Profile, oracle Oracle) (*FeedbackResult, error) {
	if err := validateProfiles(profiles); err != nil {
		return nil, err
	}
	if oracle == nil {
		return nil, fmt.Errorf("schema: feedback requires an oracle")
	}
	evidence := fb.Evidence
	if evidence == nil {
		evidence = Combined
	}
	threshold := fb.Threshold
	if threshold <= 0 {
		threshold = 0.5
	}
	budget := fb.Budget
	if budget <= 0 {
		budget = 20
	}

	// Rank candidate questions by uncertainty: |evidence − threshold|,
	// cross-source pairs only.
	type q struct {
		i, j int
		dist float64
	}
	var qs []q
	for i := 0; i < len(profiles); i++ {
		for j := i + 1; j < len(profiles); j++ {
			if profiles[i].Source == profiles[j].Source {
				continue
			}
			e := evidence(profiles[i], profiles[j])
			d := e - threshold
			if d < 0 {
				d = -d
			}
			qs = append(qs, q{i: i, j: j, dist: d})
		}
	}
	sort.Slice(qs, func(a, b int) bool {
		if qs[a].dist != qs[b].dist {
			return qs[a].dist < qs[b].dist
		}
		if qs[a].i != qs[b].i {
			return qs[a].i < qs[b].i
		}
		return qs[a].j < qs[b].j
	})

	must := map[[2]SourceAttr]bool{}    // confirmed correspondences
	mustNot := map[[2]SourceAttr]bool{} // rejected correspondences
	res := &FeedbackResult{}
	for _, question := range qs {
		if res.Questions >= budget {
			break
		}
		a, b := profiles[question.i].SourceAttr, profiles[question.j].SourceAttr
		ans := oracle(a, b)
		res.Questions++
		res.Asked = append(res.Asked, QuestionRecord{A: a, B: b, Answer: ans})
		k := pairKey(a, b)
		if ans {
			must[k] = true
		} else {
			mustNot[k] = true
		}
	}

	// Constrained evidence: confirmed pairs score 1, rejected pairs 0.
	constrained := func(a, b *Profile) float64 {
		k := pairKey(a.SourceAttr, b.SourceAttr)
		if must[k] {
			return 1
		}
		if mustNot[k] {
			return 0
		}
		return evidence(a, b)
	}
	ms, err := (Aligner{Evidence: constrained, Threshold: threshold}).Align(profiles)
	if err != nil {
		return nil, err
	}
	res.Schema = ms
	return res, nil
}

// pairKey orders two source attributes by (source, attribute), the key
// of an unordered correspondence.
func pairKey(a, b SourceAttr) [2]SourceAttr {
	if b.Source < a.Source || (b.Source == a.Source && b.Attr < a.Attr) {
		a, b = b, a
	}
	return [2]SourceAttr{a, b}
}
