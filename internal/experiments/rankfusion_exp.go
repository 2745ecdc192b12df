package experiments

import (
	"fmt"

	"repro/internal/blocking"
	"repro/internal/obs"
)

// E25Opts parameterises the rank-fusion evaluation. The zero value is
// the configuration behind the EXPERIMENTS.md E25 table.
type E25Opts struct {
	Entities int     // workload entities (default 300)
	Sources  int     // workload sources (default 14)
	Dirt     int     // workload dirt level (default 2)
	RRFK     float64 // RRF constant (0 = default 60)
}

// e25RRFK is the committed operating point for the fusion constant.
// It is deliberately larger than the API default (60): at web scale
// the junk in each stream's head is single-stream junk, so a large k
// flattens within-stream rank differences and lets cross-blocker
// consensus dominate the fused head — a pair found by three blockers
// mid-stream outranks a pair one blocker emitted early.
const e25RRFK = 600

func (o *E25Opts) defaults() {
	if o.Entities <= 0 {
		o.Entities = 300
	}
	if o.Sources <= 0 {
		o.Sources = 14
	}
	if o.Dirt <= 0 {
		o.Dirt = 2
	}
	if o.RRFK <= 0 {
		o.RRFK = e25RRFK
	}
}

// E25Result is the structured output of E25.
type E25Result struct {
	RRFK       float64 `json:"rrf_k"`
	TotalPairs int     `json:"total_pairs"` // fused stream length (= union universe)
	TruthPairs int     `json:"truth_pairs"`

	Budgets []int                `json:"budgets"`       // absolute comparison budgets
	Fused   []float64            `json:"fused_recall"`  // RRF-fused ordering
	Union   []float64            `json:"union_recall"`  // plain union, standard emission order
	Singles map[string][]float64 `json:"single_recall"` // each blocker's own ranked stream
	Names   []string             `json:"blockers"`

	// Byte-identity of the fused stream across the engine grid, plus
	// the spilled-vs-in-memory check.
	IdentityWorkers []int `json:"identity_workers"`
	IdentityShards  []int `json:"identity_shards"`
	Identical       bool  `json:"identical"`
	SpillIdentical  bool  `json:"spill_identical"`
}

// e25Blockers is the producer set under evaluation: the five blocker
// families in the pipeline-default shape. The signals are deliberately
// complementary — token, q-gram and phonetic read the noisy title;
// MinHash and sorted-neighborhood also see the manufacturer identifier
// ("pid", present on ~90% of records). No single stream has both the
// precision of identifier equality and the coverage of title
// similarity, which is exactly the regime rank fusion is for.
func e25Blockers() []blocking.RankedBlocker {
	return []blocking.RankedBlocker{
		blocking.Standard{Key: blocking.TokenKey("title"), MaxBlock: 200},
		blocking.Standard{Key: blocking.QGramKey("title", 3), MaxBlock: 200},
		blocking.MinHashLSH{Attrs: []string{"title", "pid"}},
		blocking.SortedNeighborhood{
			Keys:   []blocking.KeyFunc{blocking.AttrExactKey("pid"), blocking.AttrExactKey("title")},
			Window: 5,
		},
		blocking.Standard{Key: blocking.PhoneticKey("title", "soundex"), MaxBlock: 200},
	}
}

// e25Names labels e25Blockers, position for position.
var e25Names = []string{"token", "qgram", "minhash", "sortedneighborhood", "phonetic"}

// E25 — rank-fused candidate generation: recall-vs-comparisons curves
// for the RRF-fused multi-blocker stream against every single blocker
// (each in its own best progressive order) and the plain union, at
// equal comparison budgets; plus byte-identity of the fused stream
// across workers {1,2,8} × shards {1,4,16} and spilled vs in-memory.
func E25(seed int64, o E25Opts) (*Table, *E25Result, error) {
	o.defaults()
	web := dirtyWeb(seed, o.Entities, o.Sources, o.Dirt)
	records := web.Dataset.Records()
	truth := web.Dataset.GroundTruthClusters().Pairs()
	blockers := e25Blockers()

	// Reference run: fuse and decode. The plain union is the
	// non-progressive baseline: each blocker's candidates in its
	// standard emission order, concatenated in producer order and
	// deduplicated first-seen — the ordering the un-fused pipeline's
	// union feeds the matcher. Each single blocker's curve reads its own
	// ranked stream.
	eng := blocking.NewEngineOpts(records, blocking.Opts{})
	fusedSet := eng.FuseRanked(o.RRFK, blockers...)
	fused := fusedSet.Pairs()
	wantHash := pairStreamHash(fusedSet)
	singles := make([]*blocking.CandidateSet, len(blockers))
	for i, b := range blockers {
		singles[i] = b.Candidates(eng)
	}
	union := eng.Union(singles...).Pairs()

	res := &E25Result{
		RRFK:       o.RRFK,
		TotalPairs: len(fused),
		TruthPairs: len(truth),
		Singles:    map[string][]float64{},
	}
	for _, f := range []float64{0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0} {
		b := int(f * float64(len(fused)))
		if b < 1 {
			b = 1
		}
		res.Budgets = append(res.Budgets, b)
	}
	res.Fused = blocking.RecallCurve(fused, truth, res.Budgets)
	res.Union = blocking.RecallCurve(union, truth, res.Budgets)
	for i, b := range blockers {
		res.Names = append(res.Names, e25Names[i])
		res.Singles[e25Names[i]] = blocking.RecallCurve(b.Ranked(eng).Pairs(), truth, res.Budgets)
	}
	if err := eng.Err(); err != nil {
		return nil, nil, fmt.Errorf("E25: %w", err)
	}

	// Dominance: the fused ordering must match or beat every single
	// blocker and the plain union at every budget. The published table
	// is only valid when this holds, so it is an error here, not just a
	// table note.
	const eps = 1e-12
	for bi := range res.Budgets {
		if res.Fused[bi]+eps < res.Union[bi] {
			return nil, nil, fmt.Errorf("E25: fused recall %.4f < union %.4f at budget %d",
				res.Fused[bi], res.Union[bi], res.Budgets[bi])
		}
		for _, name := range res.Names {
			if res.Fused[bi]+eps < res.Singles[name][bi] {
				return nil, nil, fmt.Errorf("E25: fused recall %.4f < %s %.4f at budget %d",
					res.Fused[bi], name, res.Singles[name][bi], res.Budgets[bi])
			}
		}
	}

	// Byte-identity across the engine grid: the fused stream must be
	// identical for every worker × shard combination.
	res.IdentityWorkers = []int{1, 2, 8}
	res.IdentityShards = []int{1, 4, 16}
	res.Identical = true
	for _, w := range res.IdentityWorkers {
		for _, s := range res.IdentityShards {
			e := blocking.NewEngineOpts(records, blocking.Opts{Workers: w, Shards: s})
			cs := e.FuseRanked(o.RRFK, blockers...)
			if err := e.Err(); err != nil {
				return nil, nil, fmt.Errorf("E25: workers=%d shards=%d: %w", w, s, err)
			}
			if pairStreamHash(cs) != wantHash || cs.Len() != len(fused) {
				return nil, nil, fmt.Errorf("E25: fused stream diverged at workers=%d shards=%d", w, s)
			}
		}
	}

	// Spill identity: a pair-memory budget far below the fused stream
	// forces the disk-backed path; the replayed stream must match too.
	reg := obs.NewRegistry()
	spillEng := blocking.NewEngineOpts(records, blocking.Opts{
		Workers: 2, Shards: 4, PairMemBudget: int64(len(fused)), Obs: reg,
	})
	spillSet := spillEng.FuseRanked(o.RRFK, blockers...)
	if err := spillEng.Err(); err != nil {
		return nil, nil, fmt.Errorf("E25: spilled fusion: %w", err)
	}
	if !spillSet.Spilled() {
		return nil, nil, fmt.Errorf("E25: budget %d never spilled the fused stream", len(fused))
	}
	res.SpillIdentical = pairStreamHash(spillSet) == wantHash && spillSet.Len() == len(fused)
	if err := spillSet.Close(); err != nil {
		return nil, nil, fmt.Errorf("E25: close spilled set: %w", err)
	}
	if !res.SpillIdentical {
		return nil, nil, fmt.Errorf("E25: spilled fused stream diverged from the in-memory kernel")
	}

	tab := &Table{
		ID: "E25", Title: "rank fusion: truth-pair recall vs comparison budget",
		Columns: []string{"budget", "of total", "fused", "union", "token", "qgram", "minhash", "sortedngh", "phonetic"},
	}
	for bi, b := range res.Budgets {
		tab.Rows = append(tab.Rows, []string{
			d1(b), f3(float64(b) / float64(res.TotalPairs)),
			f4(res.Fused[bi]), f4(res.Union[bi]),
			f4(res.Singles["token"][bi]), f4(res.Singles["qgram"][bi]),
			f4(res.Singles["minhash"][bi]), f4(res.Singles["sortedneighborhood"][bi]),
			f4(res.Singles["phonetic"][bi]),
		})
	}
	tab.Notes = fmt.Sprintf(
		"RRF k=%.0f over %d blockers; fused ≥ every single blocker and the plain union at every budget; fused stream byte-identical for workers %v × shards %v and spilled vs in-memory",
		o.RRFK, len(blockers), res.IdentityWorkers, res.IdentityShards)
	return tab, res, nil
}
