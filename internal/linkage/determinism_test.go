package linkage

import (
	"cmp"
	"context"
	"hash/fnv"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/blocking"
	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/similarity"
	"repro/internal/tokenize"
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
	eng := blocking.NewEngineOpts(records, blocking.Opts{})
	cands := blocking.Standard{Key: blocking.TokenKey("title"), MaxBlock: 200}.Candidates(eng).Pairs()
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
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

// sortScored is the string oracle of the matcher's coded order:
// descending score, then pair order by ID strings.
func sortScored(ps []data.ScoredPair) {
	slices.SortFunc(ps, func(x, y data.ScoredPair) int {
		if c := cmp.Compare(y.Score, x.Score); c != 0 {
			return c
		}
		if c := cmp.Compare(x.A, y.A); c != 0 {
			return c
		}
		return cmp.Compare(x.B, y.B)
	})
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

// TestMatchTFIDFEqualsUncached: a TF-IDF metric scores every pair against
// its own corpus, whatever records the matcher's feature cache warms —
// the whole ID table, or one scoring batch's records under a budget — so
// the matches equal the uncached reference's score for score, bit for
// bit, at any budget and worker count.
func TestMatchTFIDFEqualsUncached(t *testing.T) {
	d, _ := matchWorkloadN(t, 200)
	records := d.Records()
	corpus := tokenize.NewCorpus()
	for _, r := range records {
		if v := r.Get("title"); v.Kind == data.KindString {
			corpus.Add(v.Str)
		}
	}
	corpus.Freeze()
	newMatcher := func() ThresholdMatcher {
		return ThresholdMatcher{Comparator: similarity.NewRecordComparator(
			similarity.FieldWeight{Attr: "title", Weight: 2, Metric: similarity.TFIDF(corpus)},
			similarity.FieldWeight{Attr: "camera_brand", Weight: 1, Metric: similarity.Jaccard},
		), Threshold: 0.5}
	}
	cs := blocking.NewEngineOpts(records, blocking.Opts{}).Blocks(blocking.TokenKey("title")).CandidateSet()
	pairs := cs.Pairs()
	n := len(pairs)
	if n <= matchBatch {
		t.Fatalf("workload too small: %d pairs", n)
	}
	for _, budget := range []int{0, n / 3} {
		want, _ := refMatch(d, pairs, NoIndex(newMatcher()), budget)
		if len(want) == 0 {
			t.Fatalf("budget=%d: the reference accepts no pair", budget)
		}
		for _, workers := range []int{1, 8} {
			got, _, err := MatchBudgetedCtx(context.Background(), d, cs, newMatcher(), budget, workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !sameScoredBits(got, want) {
				t.Errorf("budget=%d workers=%d: %d matches differ from the %d of the uncached reference", budget, workers, len(got), len(want))
			}
		}
	}
}

// TestMatchAttachesIndex: matching must attach a covering feature index
// to the comparator of every matcher that scores through one, and reuse
// it on a second run; a matcher whose comparator NoIndex hides, even
// under IdentifierFirst, must leave it without one.
func TestMatchAttachesIndex(t *testing.T) {
	d, cands := matchWorkload(t)
	for _, c := range []struct {
		name   string
		make   func(*similarity.RecordComparator) Matcher
		cached bool
	}{
		{"threshold", func(c *similarity.RecordComparator) Matcher { return ThresholdMatcher{Comparator: c, Threshold: 0.6} }, true},
		{"rule", func(c *similarity.RecordComparator) Matcher { return RuleMatcher{Comparator: c, Threshold: 0.6} }, true},
		{"fellegi-sunter", func(c *similarity.RecordComparator) Matcher { return NewFellegiSunter(c) }, true},
		{"identifier-first fellegi-sunter", func(c *similarity.RecordComparator) Matcher {
			return IdentifierFirst{Exact: []string{"pid"}, Matcher: NewFellegiSunter(c)}
		}, true},
		{"no-index rule", func(c *similarity.RecordComparator) Matcher {
			return NoIndex(RuleMatcher{Comparator: c, Threshold: 0.6})
		}, false},
		{"identifier-first no-index rule", func(c *similarity.RecordComparator) Matcher {
			return IdentifierFirst{Exact: []string{"pid"}, Matcher: NoIndex(RuleMatcher{Comparator: c, Threshold: 0.6})}
		}, false},
	} {
		cmp := workloadComparator()
		m := c.make(cmp)
		matchAll(t, d, cands, m, 2)
		idx := cmp.Index()
		if !c.cached {
			if idx != nil {
				t.Errorf("%s: matching attached a feature index behind NoIndex", c.name)
			}
			continue
		}
		if idx == nil {
			t.Fatalf("%s: matching did not attach a feature index", c.name)
		}
		for _, p := range cands {
			if !idx.Has(d.Record(p.A)) || !idx.Has(d.Record(p.B)) {
				t.Fatalf("%s: index does not cover candidate pair %v", c.name, p)
			}
		}
		// A second run over the same candidates must reuse the index.
		matchAll(t, d, cands, m, 2)
		if cmp.Index() != idx {
			t.Errorf("%s: covering index was rebuilt instead of reused", c.name)
		}
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

// tieMatcher scores a pair by a hash of its ordered IDs into a handful
// of values — ties, −0 and +0, NaN — and accepts all but one of them:
// the coded sort must break every tie the way the string oracle does.
type tieMatcher struct{}

func (tieMatcher) Match(a, b *data.Record) (float64, bool) {
	h := fnv.New32a()
	h.Write([]byte(a.ID + "|" + b.ID))
	switch h.Sum32() % 6 {
	case 0:
		return 1, true
	case 1:
		return 0.5, true
	case 2:
		return math.Copysign(0, -1), true
	case 3:
		return 0, true
	case 4:
		return math.NaN(), true
	}
	return 0.25, false
}

// sameScoredBits reports whether two match lists agree pair for pair
// and score bit for bit (so NaN equals NaN and −0 differs from +0).
func sameScoredBits(x, y []data.ScoredPair) bool {
	return slices.EqualFunc(x, y, func(a, b data.ScoredPair) bool {
		return a.Pair == b.Pair && math.Float64bits(a.Score) == math.Float64bits(b.Score)
	})
}

// TestMatchOrderOracle pins the coded order — counting passes over the
// ranks and a stable score sort — to the string sortScored oracle on
// tied, signed-zero and NaN scores. The pair slice carries unnormalised
// (A > B) and repeated pairs; the in-memory and spilled sets span
// several scoring batches. Workers {1, 2, 8}, with and without a budget.
func TestMatchOrderOracle(t *testing.T) {
	d, _ := matchWorkloadN(t, 200)
	records := d.Records()
	key := blocking.TokenKey("title")
	mem := blocking.NewEngineOpts(records, blocking.Opts{}).Blocks(key).CandidateSet()
	spilled := blocking.NewEngineOpts(records, blocking.Opts{PairMemBudget: 1 << 12, SpillDir: t.TempDir()}).Blocks(key).CandidateSet()
	defer spilled.Close()
	var slice PairSlice
	for i, p := range mem.Pairs()[:5000] {
		switch i % 7 {
		case 0:
			p.A, p.B = p.B, p.A // unnormalised
		case 1:
			slice = append(slice, p) // repeated
		}
		slice = append(slice, p)
	}
	for _, src := range []struct {
		name   string
		stream PairStream
		pairs  []data.Pair
	}{{"slice", slice, slice}, {"memory", mem, mem.Pairs()}, {"spilled", spilled, mem.Pairs()}} {
		n := len(src.pairs)
		for _, budget := range []int{0, n / 3} {
			want, _ := refMatch(d, src.pairs, tieMatcher{}, budget)
			nan := slices.ContainsFunc(want, func(p data.ScoredPair) bool { return math.IsNaN(p.Score) })
			negZero := slices.ContainsFunc(want, func(p data.ScoredPair) bool { return p.Score == 0 && math.Signbit(p.Score) })
			if !nan || !negZero {
				t.Fatalf("%s budget=%d: oracle has no NaN or −0 scores", src.name, budget)
			}
			for _, workers := range []int{1, 2, 8} {
				got, _, err := MatchBudgetedCtx(context.Background(), d, src.stream, tieMatcher{}, budget, workers, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !sameScoredBits(got, want) {
					t.Errorf("%s budget=%d workers=%d: %d matches differ from the %d of the string oracle", src.name, budget, workers, len(got), len(want))
				}
			}
		}
	}
}

// TestMatchFailsOnTruncatedSpill: when a spilled set's run files lose
// their tails — mid-entry, or on an entry boundary that reads as a clean
// end of file — matching returns the read error instead of the matches
// of the pairs it could read.
func TestMatchFailsOnTruncatedSpill(t *testing.T) {
	d, _ := matchWorkloadN(t, 200)
	for _, cut := range []struct {
		name string
		size func(int64) int64
	}{{"mid-entry", func(n int64) int64 { return n/2 + 3 }}, {"entry boundary", func(n int64) int64 { return n / 32 * 16 }}} {
		dir := t.TempDir()
		eng := blocking.NewEngineOpts(d.Records(), blocking.Opts{PairMemBudget: 1 << 12, SpillDir: dir})
		cs := eng.Blocks(blocking.TokenKey("title")).CandidateSet()
		if !cs.Spilled() {
			t.Fatal("set did not spill")
		}
		runs := 0
		err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
			if err != nil || !strings.HasSuffix(path, ".run") {
				return err
			}
			info, err := e.Info()
			if err != nil {
				return err
			}
			runs++
			return os.Truncate(path, cut.size(info.Size()))
		})
		if err != nil || runs == 0 {
			t.Fatalf("%s: truncating %d runs: %v", cut.name, runs, err)
		}
		m := ThresholdMatcher{Comparator: workloadComparator(), Threshold: 0.6}
		got, consumed, err := MatchBudgetedCtx(context.Background(), d, cs, m, 0, 2, nil)
		if err == nil || !strings.Contains(err.Error(), "spill run") {
			t.Errorf("%s: err = %v after %d comparisons and %d matches, want a spill read error", cut.name, err, consumed, len(got))
		}
		if eng.Err() == nil {
			t.Errorf("%s: the engine did not record the read error", cut.name)
		}
		cs.Close()
	}
}

// TestMatchReusesIndexDespiteDanglingPair: an ID the dataset lacks does
// not count against an attached index's coverage, so a second match over
// the same pair slice keeps the index instead of rebuilding it.
func TestMatchReusesIndexDespiteDanglingPair(t *testing.T) {
	d, cands := matchWorkload(t)
	slice := append(PairSlice{data.NewPair(cands[0].A, "ghost")}, cands...)
	cmp := workloadComparator()
	m := ThresholdMatcher{Comparator: cmp, Threshold: 0.6}
	first, err := MatchStreamCtx(context.Background(), d, slice, m, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	idx := cmp.Index()
	if idx == nil {
		t.Fatal("matching did not attach a feature index")
	}
	second, err := MatchStreamCtx(context.Background(), d, slice, m, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Index() != idx {
		t.Error("a dangling pair made matching rebuild a covering index")
	}
	if !slices.Equal(first, second) {
		t.Error("the second match differs from the first")
	}
}
