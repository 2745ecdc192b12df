package core

import (
	"fmt"
	"testing"

	"repro/internal/eval"
)

func TestConfigValidateRankFusion(t *testing.T) {
	cases := []Config{
		{RRFK: -1},
		{ComparisonBudget: -5},
	}
	for i, cfg := range cases {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config must error", i)
		}
	}
	if err := (Config{RankFusion: true, RRFK: 120, ComparisonBudget: 1000}).Validate(); err != nil {
		t.Errorf("valid rank-fusion config rejected: %v", err)
	}
}

func TestPipelineRankFusionEndToEnd(t *testing.T) {
	web := testWeb(t, 1, 0.9)
	rep, err := New(Config{RankFusion: true}).Run(web.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Candidates == 0 || len(rep.Matched) == 0 {
		t.Fatalf("no candidates/matches: %d/%d", rep.Candidates, len(rep.Matched))
	}
	if rep.Comparisons != rep.Candidates {
		t.Errorf("unbudgeted run: Comparisons = %d, want Candidates = %d",
			rep.Comparisons, rep.Candidates)
	}
	prf := eval.Clusters(rep.Clusters, web.Dataset.GroundTruthClusters())
	if prf.F1 < 0.8 {
		t.Errorf("rank-fused linkage F1 = %f, want >= 0.8 (%v)", prf.F1, prf)
	}
}

func TestPipelineRankFusionDeterministicAcrossWorkers(t *testing.T) {
	web := testWeb(t, 1, 0.9)
	var want string
	for i, cfg := range []Config{
		{RankFusion: true, Workers: 1, Shards: 1},
		{RankFusion: true, Workers: 2, Shards: 4},
		{RankFusion: true, Workers: 8, Shards: 16},
	} {
		rep, err := New(cfg).Run(web.Dataset)
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%d/%v/%v", rep.Candidates, rep.Matched, rep.Clusters)
		if i == 0 {
			want = got
		} else if got != want {
			t.Fatalf("workers=%d shards=%d: pipeline output diverged", cfg.Workers, cfg.Shards)
		}
	}
}

func TestPipelineComparisonBudget(t *testing.T) {
	web := testWeb(t, 1, 0.9)
	full, err := New(Config{RankFusion: true}).Run(web.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	budget := full.Candidates / 4
	if budget == 0 {
		t.Fatal("workload too small for a budget test")
	}
	rep, err := New(Config{RankFusion: true, ComparisonBudget: budget}).Run(web.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Comparisons != budget {
		t.Errorf("Comparisons = %d, want the budget %d", rep.Comparisons, budget)
	}
	if len(rep.Matched) == 0 || len(rep.Matched) > len(full.Matched) {
		t.Errorf("budgeted matches = %d, full = %d", len(rep.Matched), len(full.Matched))
	}
	// The budgeted path applies to the plain union stream too.
	rep, err = New(Config{ComparisonBudget: budget}).Run(web.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Comparisons != budget {
		t.Errorf("union path: Comparisons = %d, want %d", rep.Comparisons, budget)
	}
}
