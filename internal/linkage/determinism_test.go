package linkage

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"repro/internal/blocking"
	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/similarity"
)

// matchWorkload builds the seeded dirty-duplicate corpus used by the
// determinism and cache-equivalence regressions.
func matchWorkload(t testing.TB) (*data.Dataset, []data.Pair) {
	return matchWorkloadN(t, 60)
}

func matchWorkloadN(t testing.TB, entities int) (*data.Dataset, []data.Pair) {
	t.Helper()
	w := datagen.NewWorld(datagen.WorldConfig{
		Seed: 42, NumEntities: entities, Categories: []string{"camera"},
	})
	web := datagen.BuildWeb(w, datagen.SourceConfig{
		Seed: 43, NumSources: 10, DirtLevel: 2,
		IdentifierRate: 0.9, Heterogeneity: 0.3,
		HeadFraction: 0.4, TailCoverage: 0.3,
	})
	records := web.Dataset.Records()
	cands := blocking.Standard{Key: blocking.TokenKey("title"), MaxBlock: 200}.Candidates(records)
	if len(cands) == 0 {
		t.Fatal("workload produced no candidate pairs")
	}
	return web.Dataset, cands
}

func workloadComparator() *similarity.RecordComparator {
	return similarity.NewRecordComparator(
		similarity.FieldWeight{Attr: "title", Weight: 2, Metric: similarity.Jaccard},
		similarity.FieldWeight{Attr: "camera_brand", Weight: 1, Metric: similarity.Dice},
		similarity.FieldWeight{Attr: "camera_color", Weight: 1},
		similarity.FieldWeight{Attr: "camera_price_usd", Weight: 1},
	)
}

// refMatch is the sequential reference the matching loop is pinned to:
// score the first budget pairs one at a time, keep the matches, sort.
func refMatch(d *data.Dataset, pairs []data.Pair, m Matcher, budget int) ([]data.ScoredPair, int) {
	if budget <= 0 || budget > len(pairs) {
		budget = len(pairs)
	}
	var out []data.ScoredPair
	for _, p := range pairs[:budget] {
		if a, b := d.Record(p.A), d.Record(p.B); a != nil && b != nil {
			if s, ok := m.Match(a, b); ok {
				out = append(out, data.ScoredPair{Pair: p, Score: s})
			}
		}
	}
	sortScored(out)
	return out, budget
}

// TestMatchIdentity pins the one matching loop to the sequential,
// uncached reference for every way candidates reach it: a pair slice
// (with a dangling pair), an in-memory candidate set and a spilled one,
// at workers {1, 2, 8}, unlimited and under budgets below, at and above
// the stream length, with and without the feature cache. The workload
// spans several scoring batches.
func TestMatchIdentity(t *testing.T) {
	d, _ := matchWorkloadN(t, 200)
	records := d.Records()
	key := blocking.TokenKey("title")
	mem := blocking.NewEngineOpts(records, blocking.Opts{}).Blocks(key).CandidateSet()
	spillEng := blocking.NewEngineOpts(records, blocking.Opts{PairMemBudget: 1 << 12, SpillDir: t.TempDir()})
	spilled := spillEng.Blocks(key).CandidateSet()
	defer spilled.Close()
	if !spilled.Spilled() || mem.Len() <= matchBatch {
		t.Fatalf("workload too small: %d pairs, spilled=%v", mem.Len(), spilled.Spilled())
	}
	slice := append(PairSlice{data.NewPair(records[0].ID, "ghost")}, mem.Pairs()...)
	newMatcher := func() Matcher { return ThresholdMatcher{Comparator: workloadComparator(), Threshold: 0.6} }
	for _, src := range []struct {
		name   string
		stream PairStream
		pairs  []data.Pair
	}{{"slice", slice, slice}, {"memory", mem, mem.Pairs()}, {"spilled", spilled, mem.Pairs()}} {
		n := len(src.pairs)
		full, _ := refMatch(d, src.pairs, NoIndex(newMatcher()), 0)
		third, _ := refMatch(d, src.pairs, NoIndex(newMatcher()), n/3)
		if len(third) == 0 || len(third) == len(full) {
			t.Fatalf("%s: budget n/3 does not separate the references (%d vs %d matches)", src.name, len(third), len(full))
		}
		for _, c := range []struct {
			budget, consumed int
			want             []data.ScoredPair
		}{{0, n, full}, {-1, n, full}, {n / 3, n / 3, third}, {n, n, full}, {2 * n, n, full}} {
			for _, workers := range []int{1, 2, 8} {
				matchers := []Matcher{newMatcher()}
				if workers == 2 && src.name == "slice" {
					matchers = append(matchers, NoIndex(newMatcher())) // the cache never changes a score
				}
				for _, m := range matchers {
					got, consumed, err := MatchBudgetedCtx(context.Background(), d, src.stream, m, c.budget, workers, nil)
					if err != nil {
						t.Fatal(err)
					}
					if consumed != c.consumed || !slices.Equal(got, c.want) {
						t.Errorf("%s budget=%d workers=%d %T: consumed %d (want %d), %d matches (want %d) or order differs",
							src.name, c.budget, workers, m, consumed, c.consumed, len(got), len(c.want))
					}
				}
			}
		}
	}
	if err := spillEng.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestMatchAttachesIndex: matching must prepare the comparator index
// for IDIndexPreparer matchers and reuse a covering index.
func TestMatchAttachesIndex(t *testing.T) {
	d, cands := matchWorkload(t)
	cmp := workloadComparator()
	matchAll(t, d, cands, ThresholdMatcher{Comparator: cmp, Threshold: 0.6}, 2)
	idx := cmp.Index()
	if idx == nil {
		t.Fatal("matching did not attach a feature index")
	}
	for _, p := range cands[:10] {
		if !idx.Has(d.Record(p.A)) || !idx.Has(d.Record(p.B)) {
			t.Fatalf("index does not cover candidate pair %v", p)
		}
	}
	// A second batch over the same candidates must reuse the index.
	matchAll(t, d, cands, ThresholdMatcher{Comparator: cmp, Threshold: 0.6}, 2)
	if cmp.Index() != idx {
		t.Error("covering index was rebuilt instead of reused")
	}
}

// TestFellegiSunterCachedEqualsUncached covers the comparison-vector
// path: EM training and posterior scoring give identical results with
// and without the cache.
func TestFellegiSunterCachedEqualsUncached(t *testing.T) {
	d, cands := matchWorkload(t)
	run := func(cache bool) []data.ScoredPair {
		fs := NewFellegiSunter(workloadComparator())
		fs.AgreeAt = 0.7
		fs.Threshold = 0.8
		if !cache {
			// Train attaches the index internally; detach to force the
			// direct path throughout.
			if err := fs.Train(d, cands, 10); err != nil {
				t.Fatal(err)
			}
			fs.Comparator.AttachIndex(nil)
			return matchAll(t, d, cands, NoIndex(fs), 4)
		}
		if err := fs.Train(d, cands, 10); err != nil {
			t.Fatal(err)
		}
		return matchAll(t, d, cands, fs, 4)
	}
	if got, want := run(true), run(false); !reflect.DeepEqual(got, want) {
		t.Errorf("FS cached (%d pairs) differs from uncached (%d pairs)", len(got), len(want))
	}
}
