package core

import (
	"fmt"
	"os"
	"slices"
	"testing"

	"repro/internal/obs"
)

// TestPipelineShardedSpilledIdentical: the scale-out knobs (Workers,
// Shards, PairMemBudget) must not change a single byte of the pipeline
// output on any candidate path — one concatenated pass, meta-blocking's
// union, rank fusion — and a budgeted run leaves its SpillDir empty.
func TestPipelineShardedSpilledIdentical(t *testing.T) {
	web := testWeb(t, 1, 0.9)
	for _, mode := range []struct {
		name   string
		cfg    Config
		spills bool // at 1 KiB; meta-blocking's pruned set never spills, its identifier pass is smaller
	}{
		{"default", Config{}, true},
		{"meta", Config{MetaBlock: true}, false},
		{"rank-fusion", Config{RankFusion: true}, true},
	} {
		baseCfg := mode.cfg
		baseCfg.Workers = 2
		base, err := New(baseCfg).Run(web.Dataset)
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range []int64{0, 1 << 10} {
			for _, workers := range []int{1, 2, 8} {
				for _, shards := range []int{4, 16} {
					name := fmt.Sprintf("%s budget=%d workers=%d shards=%d", mode.name, budget, workers, shards)
					cfg := mode.cfg
					cfg.Workers, cfg.Shards, cfg.PairMemBudget = workers, shards, budget
					cfg.SpillDir, cfg.Obs = t.TempDir(), obs.NewRegistry()
					rep, err := New(cfg).Run(web.Dataset)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if rep.Candidates != base.Candidates {
						t.Fatalf("%s: candidates %d, want %d", name, rep.Candidates, base.Candidates)
					}
					if !slices.Equal(rep.Matched, base.Matched) {
						t.Fatalf("%s: %d matches differ from the unbudgeted run's %d", name, len(rep.Matched), len(base.Matched))
					}
					if !slices.EqualFunc(rep.Clusters, base.Clusters, slices.Equal) {
						t.Fatalf("%s: clusters differ from the unbudgeted run", name)
					}
					if spilled := cfg.Obs.Counter("blocking.spill_runs").Value() > 0; spilled != (mode.spills && budget > 0) {
						t.Fatalf("%s: spilled = %v", name, spilled)
					}
					ents, err := os.ReadDir(cfg.SpillDir)
					if err != nil {
						t.Fatal(err)
					}
					if len(ents) != 0 {
						t.Fatalf("%s: %d spill entries left behind", name, len(ents))
					}
				}
			}
		}
	}
}

// TestPipelineSpilledFellegiSunter: the FS training path materialises
// candidates from the spilled stream; the run must still complete and
// match the unbudgeted run.
func TestPipelineSpilledFellegiSunter(t *testing.T) {
	web := testWeb(t, 1, 0.9)
	base, err := New(Config{Workers: 2, FellegiSunter: true}).Run(web.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := New(Config{
		Workers: 2, FellegiSunter: true,
		Shards: 4, PairMemBudget: 1 << 10, SpillDir: t.TempDir(),
	}).Run(web.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Matched) != len(base.Matched) {
		t.Fatalf("spilled FS run: %d matches, want %d", len(rep.Matched), len(base.Matched))
	}
}

func TestConfigValidateScaleKnobs(t *testing.T) {
	if err := (Config{Shards: -1}).Validate(); err == nil {
		t.Fatal("negative shard count accepted")
	}
	if err := (Config{PairMemBudget: -1}).Validate(); err == nil {
		t.Fatal("negative pair-memory budget accepted")
	}
	if err := (Config{Shards: 8, PairMemBudget: 1 << 20}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParseByteSize(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		err  bool
	}{
		{"", 0, false},
		{"0", 0, false},
		{"4096", 4096, false},
		{"64k", 64 << 10, false},
		{"64kb", 64 << 10, false},
		{"256mb", 256 << 20, false},
		{"256M", 256 << 20, false},
		{"2g", 2 << 30, false},
		{"1GB", 1 << 30, false},
		{" 8 mb ", 8 << 20, false},
		{"-1", 0, true},
		{"12q", 0, true},
		{"mb", 0, true},
		{"9999999999g", 0, true},
	}
	for _, c := range cases {
		got, err := ParseByteSize(c.in)
		if c.err {
			if err == nil {
				t.Errorf("ParseByteSize(%q) = %d, want error", c.in, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("ParseByteSize(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
	}
}
