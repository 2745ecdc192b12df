package core

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

// runWithMetrics runs one pipeline over the shared test web with the
// given worker count and returns the stable snapshot renderings.
func runWithMetrics(t *testing.T, workers int, mutate func(*Config)) (text string, jsonb []byte) {
	t.Helper()
	web := testWeb(t, 1, 0.9)
	reg := obs.NewRegistry()
	cfg := Config{Workers: workers, Obs: reg, Fuser: "accu"}
	if mutate != nil {
		mutate(&cfg)
	}
	if _, err := New(cfg).Run(web.Dataset); err != nil {
		t.Fatal(err)
	}
	stable := reg.Snapshot().Stable()
	js, err := stable.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return stable.Text(), js
}

// TestPipelineMetricsDeterministic pins the observability acceptance
// criterion: the stable snapshot — text and JSON — is byte-identical
// for workers ∈ {1, 2, 8} and covers all four stages, on the default
// blocking path and through rank fusion (whose accumulation partition
// follows the worker count and must not show).
func TestPipelineMetricsDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
		want   []string
	}{
		{"default", nil, []string{"blocking.pairs_emitted"}},
		{"rank-fusion", func(c *Config) { c.RankFusion = true }, []string{"blocking.rrf_candidates"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseText, baseJSON := runWithMetrics(t, 1, tc.mutate)
			for _, want := range append([]string{
				"blocking.candidates", "blocking.blocks_built",
				"matching.comparisons", "matching.matched", "matching.cached_compares",
				"clustering.clusters",
				"alignment.mediated_attrs",
				"fusion.items", "fusion.em_iterations",
				"pipeline",
			}, tc.want...) {
				if !strings.Contains(baseText, want) {
					t.Errorf("stable snapshot missing %q:\n%s", want, baseText)
				}
			}
			if strings.Contains(baseText, "parallel.") {
				t.Errorf("stable snapshot leaked worker-dependent metrics:\n%s", baseText)
			}
			for _, workers := range []int{2, 8} {
				text, js := runWithMetrics(t, workers, tc.mutate)
				if text != baseText {
					t.Errorf("workers=%d: stable text differs from workers=1:\n--- w=1\n%s\n--- w=%d\n%s",
						workers, baseText, workers, text)
				}
				if string(js) != string(baseJSON) {
					t.Errorf("workers=%d: stable JSON differs from workers=1", workers)
				}
			}
		})
	}
}

// TestPipelineMetricsFellegiSunter checks the span tree gains the train
// sub-stage and the full snapshot records scheduling metrics.
func TestPipelineMetricsFellegiSunter(t *testing.T) {
	web := testWeb(t, 1, 0.9)
	reg := obs.NewRegistry()
	cfg := Config{Obs: reg, FellegiSunter: true}
	if _, err := New(cfg).Run(web.Dataset); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	var sawTrain bool
	for _, sp := range snap.Spans {
		if sp.Path == "pipeline/matching/train" {
			sawTrain = true
		}
	}
	if !sawTrain {
		t.Errorf("span tree missing pipeline/matching/train: %+v", snap.Spans)
	}
	full := snap.Text()
	if !strings.Contains(full, "parallel.tasks") {
		t.Errorf("full snapshot missing parallel scheduling metrics:\n%s", full)
	}
}

// TestPipelineStageTimeFromSpans checks StageTime stays populated with
// the historical keys when no registry is attached (detached spans).
func TestPipelineStageTimeFromSpans(t *testing.T) {
	web := testWeb(t, 1, 0.9)
	rep, err := New(Config{}).Run(web.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{"blocking", "matching", "clustering", "alignment", "fusion"} {
		if _, ok := rep.StageTime[stage]; !ok {
			t.Errorf("StageTime missing %q: %v", stage, rep.StageTime)
		}
	}
}
