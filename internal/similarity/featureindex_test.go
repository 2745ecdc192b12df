package similarity

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/obs"
	"repro/internal/tokenize"
)

// indexWorkload builds a small dirty corpus covering every value kind
// and tokenisation edge case the cached path must reproduce.
func indexWorkload() []*data.Record {
	titles := []string{
		"Nova Camera Pro 300 Deluxe", "nova camera pro 300", "NOVA-CAMERA pro-300",
		"Orbit Lens Kit 50mm", "orbit lens 50mm kit", "!!!", "单反 相机 Pro",
		"the a an of camera", "camera", "Nova Nova Nova camera",
	}
	recs := make([]*data.Record, 0, len(titles)+2)
	for i, t := range titles {
		r := data.NewRecord(fmt.Sprintf("r%02d", i), "s1")
		r.Set("title", data.String(t))
		if i%2 == 0 {
			r.Set("brand", data.String([]string{"Nova", "Orbit", "nova"}[i%3]))
		}
		if i%3 != 0 {
			r.Set("price", data.Number(float64(100+i*7)))
		}
		if i%4 == 0 {
			r.Set("instock", data.Bool(i%8 == 0))
		}
		if i%5 == 0 {
			r.Set("seen", data.Time(time.Date(2020+i, 1, 1, 0, 0, 0, 0, time.UTC)))
		}
		if i == 3 {
			r.Set("price", data.String("149 usd")) // kind mismatch vs numbers
		}
		recs = append(recs, r)
	}
	// A record with no compared fields at all.
	empty := data.NewRecord("r98", "s1")
	empty.Set("unrelated", data.String("x"))
	recs = append(recs, empty)
	return recs
}

func indexComparator() *RecordComparator {
	return NewRecordComparator(
		FieldWeight{Attr: "title", Weight: 2, Metric: Jaccard},
		FieldWeight{Attr: "brand", Weight: 1, Metric: Dice},
		FieldWeight{Attr: "price", Weight: 1}, // numbers + JaroWinkler fallback
		FieldWeight{Attr: "instock", Weight: 0.5, Metric: Overlap},
		FieldWeight{Attr: "seen", Weight: 0.5, Metric: CosineSet},
	)
}

// TestCachedCompareMatchesUncached is the core correctness contract:
// attaching a feature index must not change any score, for any metric
// kind, on any pair.
func TestCachedCompareMatchesUncached(t *testing.T) {
	recs := indexWorkload()
	cached := indexComparator()
	uncached := indexComparator()
	cached.AttachIndex(BuildFeatureIndex(recs, cached, 1))
	for i := 0; i < len(recs); i++ {
		for j := i; j < len(recs); j++ {
			a, b := recs[i], recs[j]
			if got, want := cached.Compare(a, b), uncached.Compare(a, b); got != want {
				t.Errorf("Compare(%s,%s): cached %v != uncached %v", a.ID, b.ID, got, want)
			}
			gs, ws := make([]float64, len(cached.Fields())), make([]float64, len(uncached.Fields()))
			cached.FieldScoresInto(gs, a, b)
			uncached.FieldScoresInto(ws, a, b)
			for k := range gs {
				if gs[k] != ws[k] {
					t.Errorf("FieldScoresInto(%s,%s)[%d]: cached %v != uncached %v", a.ID, b.ID, k, gs[k], ws[k])
				}
			}
		}
	}
}

// TestCachedSetKernels pins which metrics get a kernel — each set
// metric, as a function value and through Named, and no closure-built
// metric — and each set kernel against its map-based metric directly on
// the raw strings. A metric falling back to Values scores the same bits
// as its kernel would, so only the selection shows which path ran.
func TestCachedSetKernels(t *testing.T) {
	for _, c := range []struct {
		name string
		m    Metric
		want kernel
	}{
		{"Jaccard", Jaccard, kernelJaccard}, {"Named(jaccard)", Named("jaccard"), kernelJaccard},
		{"Dice", Dice, kernelDice}, {"Named(dice)", Named("dice"), kernelDice},
		{"Overlap", Overlap, kernelOverlap}, {"Named(overlap)", Named("overlap"), kernelOverlap},
		{"CosineSet", CosineSet, kernelCosine}, {"Named(cosine)", Named("cosine"), kernelCosine},
		{"TFIDF", TFIDF(tokenize.NewCorpus()), kernelNone}, {"Named(qgram3)", Named("qgram3"), kernelNone},
	} {
		if got := kernelOf(c.m); got != c.want {
			t.Errorf("kernelOf(%s) = %d, want %d", c.name, got, c.want)
		}
	}

	pairs := [][2]string{
		{"nova camera pro 300", "nova camera pro 300 deluxe"},
		{"a b c", "d e f"},
		{"", ""},
		{"!!!", "???"},
		{"x", "x"},
		{"one two two three", "two three four"},
	}
	metrics := []struct {
		name string
		m    Metric
	}{
		{"jaccard", Jaccard}, {"dice", Dice}, {"overlap", Overlap}, {"cosine", CosineSet},
	}
	for _, mt := range metrics {
		rc := NewRecordComparator(FieldWeight{Attr: "v", Weight: 1, Metric: mt.m})
		for pi, p := range pairs {
			a := data.NewRecord("a", "s").Set("v", data.String(p[0]))
			b := data.NewRecord("b", "s").Set("v", data.String(p[1]))
			rc.AttachIndex(BuildFeatureIndex([]*data.Record{a, b}, rc, 1))
			got := rc.Compare(a, b)
			want := mt.m(p[0], p[1])
			if p[0] == "" && p[1] == "" {
				want = 0 // both null: no comparable fields
			}
			if got != want {
				t.Errorf("%s pair %d: cached %v, direct %v", mt.name, pi, got, want)
			}
		}
	}
}

// TestCachedTFIDF: with an index attached, a TF-IDF field scores
// exactly TFIDFCosine over the metric's own corpus, bit for bit.
func TestCachedTFIDF(t *testing.T) {
	recs := indexWorkload()
	corpus := tokenize.NewCorpus()
	for _, r := range recs {
		if v := r.Get("title"); v.Kind == data.KindString {
			corpus.Add(v.Str)
		}
	}
	rc := NewRecordComparator(FieldWeight{Attr: "title", Weight: 1, Metric: TFIDF(corpus)})
	rc.AttachIndex(BuildFeatureIndex(recs, rc, 1))
	reg := obs.NewRegistry()
	rc.AttachObs(reg)
	for i := 0; i < len(recs); i++ {
		for j := i; j < len(recs); j++ {
			a, b := recs[i], recs[j]
			va, vb := a.Get("title"), b.Get("title")
			if va.IsNull() || vb.IsNull() {
				continue
			}
			got := rc.Compare(a, b)
			want := TFIDFCosine(corpus, va.Str, vb.Str)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("tfidf(%s,%s): cached %v, direct %v", a.ID, b.ID, got, want)
			}
		}
	}
	if n := reg.Counter("matching.uncached_compares").Value(); n != 0 {
		t.Errorf("%d pairs were scored without the index", n)
	}
}

// TestCachedCompareZeroAllocs is the allocation assertion: with an
// index attached, scoring a pair on token metrics does zero heap
// allocations.
func TestCachedCompareZeroAllocs(t *testing.T) {
	a := data.NewRecord("a", "s").
		Set("title", data.String("nova camera pro 300 deluxe edition")).
		Set("brand", data.String("nova imaging")).
		Set("price", data.Number(299))
	b := data.NewRecord("b", "s").
		Set("title", data.String("nova camera pro 300")).
		Set("brand", data.String("nova")).
		Set("price", data.Number(305))
	rc := NewRecordComparator(
		FieldWeight{Attr: "title", Weight: 2, Metric: Jaccard},
		FieldWeight{Attr: "brand", Weight: 1, Metric: Dice},
		FieldWeight{Attr: "price", Weight: 1},
	)
	rc.AttachIndex(BuildFeatureIndex([]*data.Record{a, b}, rc, 1))
	if allocs := testing.AllocsPerRun(200, func() { rc.Compare(a, b) }); allocs != 0 {
		t.Errorf("cached Compare allocates %v per pair, want 0", allocs)
	}
	scores := make([]float64, len(rc.Fields()))
	if allocs := testing.AllocsPerRun(200, func() { rc.FieldScoresInto(scores, a, b) }); allocs != 0 {
		t.Errorf("cached FieldScoresInto allocates %v per pair, want 0", allocs)
	}
}

// TestUnindexedRecordsFallBack: records outside the index must still
// score correctly through the direct path.
func TestUnindexedRecordsFallBack(t *testing.T) {
	recs := indexWorkload()
	rc := indexComparator()
	rc.AttachIndex(BuildFeatureIndex(recs[:3], rc, 1))
	fresh := data.NewRecord("fresh", "s2").Set("title", data.String("nova camera pro 300"))
	want := indexComparator().Compare(recs[0], fresh)
	if got := rc.Compare(recs[0], fresh); got != want {
		t.Errorf("fallback Compare = %v, want %v", got, want)
	}
	if !rc.Index().Has(recs[0]) || rc.Index().Has(fresh) {
		t.Error("index coverage misreported by Has")
	}
}

// TestIndexReadsOnlyItsOwnRecords pins that a cached entry is read only
// for the record it was built from, and only by the comparator that
// built the index: after an ID's record is replaced (the old one
// removed, the new one added) the old entry is never read for the new
// record, a foreign record carrying an indexed ID scores as if no index
// were attached, and so does every pair under a comparator given
// another comparator's index.
func TestIndexReadsOnlyItsOwnRecords(t *testing.T) {
	recs := indexWorkload()
	rc, plain := indexComparator(), indexComparator()
	reg := obs.NewRegistry()
	rc.AttachObs(reg)
	rc.AttachIndex(BuildFeatureIndex(recs, rc, 1))
	uncached := reg.Counter("matching.uncached_compares")

	// A foreign record under recs[0]'s ID, with another title.
	foreign := recs[0].Clone().Set("title", data.String("orbit lens kit"))
	if rc.Index().Has(foreign) {
		t.Fatal("Has reports a foreign record under an indexed ID")
	}
	for _, other := range recs {
		before := uncached.Value()
		if got, want := rc.Compare(foreign, other), plain.Compare(foreign, other); got != want {
			t.Errorf("foreign %s vs %s: %v, uncached %v", foreign.ID, other.ID, got, want)
		}
		if uncached.Value() != before+1 {
			t.Fatalf("foreign %s vs %s was scored from the cache", foreign.ID, other.ID)
		}
	}
	// Replace recs[1] in the index; the stale record is no longer read
	// from it, the new one is.
	stale, fresh := recs[1], recs[1].Clone().Set("title", data.String("zenix photon blender"))
	rc.Index().Remove(stale)
	rc.Index().Add(fresh)
	for _, other := range recs[2:] {
		before := uncached.Value()
		if got, want := rc.Compare(stale, other), plain.Compare(stale, other); got != want {
			t.Errorf("stale %s vs %s: %v, uncached %v", stale.ID, other.ID, got, want)
		}
		if got, want := rc.Compare(fresh, other), plain.Compare(fresh, other); got != want {
			t.Errorf("fresh %s vs %s: %v, uncached %v", fresh.ID, other.ID, got, want)
		}
		if uncached.Value() != before+1 {
			t.Fatalf("stale %s vs %s was scored from the cache, or fresh was not", stale.ID, other.ID)
		}
	}
	// A one-field brand comparator given a one-field title comparator's
	// index must not read the title tokens as brands.
	a := data.NewRecord("a", "s").Set("title", data.String("nova camera")).Set("brand", data.String("nova"))
	b := data.NewRecord("b", "s").Set("title", data.String("nova camera")).Set("brand", data.String("orbit"))
	title := NewRecordComparator(FieldWeight{Attr: "title", Weight: 1, Metric: Jaccard})
	brand := NewRecordComparator(FieldWeight{Attr: "brand", Weight: 1, Metric: Jaccard})
	want := brand.Compare(a, b)
	brand.AttachIndex(BuildFeatureIndex([]*data.Record{a, b}, title, 1))
	brand.AttachObs(reg)
	before := uncached.Value()
	if got := brand.Compare(a, b); got != want {
		t.Errorf("brand under the title comparator's index scores %v, uncached %v", got, want)
	}
	if uncached.Value() != before+1 {
		t.Error("brand was scored from the title comparator's index")
	}
}

// TestIndexAddRemoveMatchesBuild drives an index through random Adds —
// of new records and of replacements under a live ID, the old version
// removed first — and Removes, and
// after every step requires every pair of live records to score as
// under BuildFeatureIndex over them, bit for bit, on a set-metric and a
// TF-IDF comparator. The titles draw fresh words, so most of the
// dictionary's IDs go dead on the way; midway the index is renumbered
// into a dictionary of the IDs its entries hold, as a stream does.
func TestIndexAddRemoveMatchesBuild(t *testing.T) {
	base := indexWorkload()
	corpus := tokenize.NewCorpus()
	for _, r := range base {
		corpus.Add(r.Get("title").String())
	}
	tfidf := func() *RecordComparator {
		return NewRecordComparator(FieldWeight{Attr: "title", Weight: 1, Metric: TFIDF(corpus)})
	}
	for _, c := range []struct {
		name string
		make func() *RecordComparator
	}{{"sets", indexComparator}, {"tfidf", tfidf}} {
		rc := c.make()
		idx := BuildFeatureIndex(nil, rc, 1)
		rc.AttachIndex(idx)
		rng := rand.New(rand.NewSource(3))
		live := map[string]*data.Record{}
		for step := 0; step < 600; step++ {
			if step == 300 {
				held := make([]bool, idx.Dict().Len())
				idx.MarkHeld(held)
				idx.Renumber(held)
				if n := idx.Dict().Len(); n != len(slices.DeleteFunc(held, func(ok bool) bool { return !ok })) || 2*n > len(held) {
					t.Fatalf("%s: renumbered %d IDs into %d, want the held ones, fewer than half", c.name, len(held), n)
				}
			}
			r := base[rng.Intn(len(base))]
			if old, ok := live[r.ID]; ok && rng.Intn(3) == 0 {
				idx.Remove(old)
				delete(live, r.ID)
			} else {
				if ok {
					idx.Remove(old)
				}
				r = r.Clone().Set("title", data.String(fmt.Sprintf("%s w%d", r.Get("title").String(), step)))
				idx.Add(r)
				live[r.ID] = r
			}
			var recs []*data.Record
			for _, r := range live {
				recs = append(recs, r)
			}
			built := c.make()
			built.AttachIndex(BuildFeatureIndex(recs, built, 1))
			if idx.Len() != len(recs) {
				t.Fatalf("%s step %d: %d entries for %d live records", c.name, step, idx.Len(), len(recs))
			}
			for _, a := range recs {
				for _, b := range recs {
					got, want := rc.Compare(a, b), built.Compare(a, b)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s step %d: %s~%s scores %v maintained, %v built", c.name, step, a.ID, b.ID, got, want)
					}
				}
			}
		}
	}
}

// TestParallelBuildMatchesAddLoop: BuildFeatureIndex at any worker count
// equals Add over the same records in order — interned IDs, every token
// set and Compare bits — on a corpus spanning several
// build blocks, with a repeated ID (each record keeps its own entry)
// and nil records, for a set-metric and a TF-IDF comparator.
func TestParallelBuildMatchesAddLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	vocab := make([]string, 400)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("w%d", i)
	}
	n := 2*buildBlock + 777
	recs := make([]*data.Record, 0, n+3)
	for i := 0; i < n; i++ {
		r := data.NewRecord(fmt.Sprintf("r%05d", i), "s1")
		words := make([]string, 1+rng.Intn(7))
		for j := range words {
			words[j] = vocab[rng.Intn(len(vocab))]
		}
		if i%11 != 0 {
			r.Set("title", data.String(strings.Join(words, " ")))
		}
		r.Set("brand", data.String(vocab[rng.Intn(20)]))
		recs = append(recs, r)
	}
	recs = append(recs, nil, data.NewRecord("r00005", "s2").Set("title", data.String("w1 replaced w2")), nil)
	corpus := tokenize.NewCorpus() // the TF-IDF metric's
	for _, r := range recs {
		if r != nil {
			corpus.Add(r.Get("title").String())
		}
	}
	tfidf := func() *RecordComparator {
		return NewRecordComparator(FieldWeight{Attr: "title", Weight: 2, Metric: TFIDF(corpus)}, FieldWeight{Attr: "brand", Weight: 1, Metric: Jaccard})
	}
	sets := func() *RecordComparator {
		return NewRecordComparator(FieldWeight{Attr: "title", Weight: 2, Metric: Jaccard}, FieldWeight{Attr: "brand", Weight: 1, Metric: Dice})
	}
	for _, c := range []struct {
		name string
		make func() *RecordComparator
	}{{"sets", sets}, {"tfidf", tfidf}} {
		loopRC := c.make()
		loop := BuildFeatureIndex(nil, loopRC, 1)
		for _, r := range recs {
			if r != nil {
				loop.Add(r)
			}
		}
		loopRC.AttachIndex(loop)
		for _, workers := range []int{1, 2, 8} {
			builtRC := c.make()
			built := BuildFeatureIndex(recs, builtRC, workers)
			builtRC.AttachIndex(built)
			if built.Dict().Len() != loop.Dict().Len() || built.Len() != loop.Len() {
				t.Fatalf("%s workers=%d: %d IDs over %d records, the Add loop %d over %d",
					c.name, workers, built.Dict().Len(), built.Len(), loop.Dict().Len(), loop.Len())
			}
			for r, want := range loop.feats {
				got, ok := built.feats[r]
				if !ok {
					t.Fatalf("%s workers=%d: %s is not indexed", c.name, workers, r.ID)
				}
				for i := range want {
					g, w := got[i], want[i]
					if !g.val.Equal(w.val) || !slices.Equal(g.tokens, w.tokens) {
						t.Fatalf("%s workers=%d: %s field %d differs from the Add loop", c.name, workers, r.ID, i)
					}
				}
			}
			for i := 0; i < 3000; i++ {
				a, b := recs[rng.Intn(n)], recs[rng.Intn(n)]
				if got, want := builtRC.Compare(a, b), loopRC.Compare(a, b); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s workers=%d: %s~%s scores %v built, %v by the Add loop", c.name, workers, a.ID, b.ID, got, want)
				}
			}
		}
	}
}

// TestParallelBuildGrowingVocabulary: BuildFeatureIndex equals the Add
// loop on a corpus whose vocabulary grows in every block — each record
// brings a word first seen mid-block, repeats it, and repeats words of
// the records just before it in the same block — so most records go
// through the serial pass over the words the parallel lookup missed.
// Every dictionary ID, token set and Compare bit must be the loop's.
func TestParallelBuildGrowingVocabulary(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 2*buildBlock + 777
	recs := make([]*data.Record, n)
	for i := range recs {
		words := []string{fmt.Sprintf("new%d", i), fmt.Sprintf("w%d", rng.Intn(50))}
		for k := 0; k < 3; k++ {
			if j := i - 1 - rng.Intn(40); j >= 0 && j/buildBlock == i/buildBlock {
				words = append(words, fmt.Sprintf("new%d", j))
			}
		}
		words = append(words, words[0])
		rng.Shuffle(len(words), func(a, b int) { words[a], words[b] = words[b], words[a] })
		recs[i] = data.NewRecord(fmt.Sprintf("r%05d", i), "s1").
			Set("title", data.String(strings.Join(words, " "))).
			Set("brand", data.String(fmt.Sprintf("b%d new%d", rng.Intn(9), i)))
	}
	newRC := func() *RecordComparator {
		return NewRecordComparator(FieldWeight{Attr: "title", Weight: 2, Metric: Jaccard}, FieldWeight{Attr: "brand", Weight: 1, Metric: CosineSet})
	}
	loopRC := newRC()
	loop := BuildFeatureIndex(nil, loopRC, 1)
	for _, r := range recs {
		loop.Add(r)
	}
	loopRC.AttachIndex(loop)
	for _, workers := range []int{1, 2, 8} {
		builtRC := newRC()
		built := BuildFeatureIndex(recs, builtRC, workers)
		builtRC.AttachIndex(built)
		if built.Dict().Len() != loop.Dict().Len() || built.Len() != loop.Len() {
			t.Fatalf("workers=%d: %d IDs over %d records, the Add loop %d over %d",
				workers, built.Dict().Len(), built.Len(), loop.Dict().Len(), loop.Len())
		}
		for id := 0; id < loop.Dict().Len(); id++ {
			if got, want := built.Dict().Token(uint32(id)), loop.Dict().Token(uint32(id)); got != want {
				t.Fatalf("workers=%d: ID %d is %q, the Add loop's %q", workers, id, got, want)
			}
		}
		for _, r := range recs {
			for f := range builtRC.Fields() {
				if got, want := built.Tokens(r, f), loop.Tokens(r, f); !slices.Equal(got, want) {
					t.Fatalf("workers=%d: %s field %d is %v, the Add loop's %v", workers, r.ID, f, got, want)
				}
			}
		}
		for i := 0; i < 3000; i++ {
			a, b := recs[rng.Intn(n)], recs[rng.Intn(n)]
			if got, want := builtRC.Compare(a, b), loopRC.Compare(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("workers=%d: %s~%s scores %v built, %v by the Add loop", workers, a.ID, b.ID, got, want)
			}
		}
	}
}

// TestRemoveKeepsOtherVersion: two versions of one ID each keep their
// entry, and removing one leaves the other's cached and scored.
func TestRemoveKeepsOtherVersion(t *testing.T) {
	recs := indexWorkload()
	rc, plain := indexComparator(), indexComparator()
	reg := obs.NewRegistry()
	rc.AttachObs(reg)
	rc.AttachIndex(BuildFeatureIndex(recs, rc, 2))
	old := recs[0]
	v2 := old.Clone().Set("title", data.String("zenix photon blender"))
	rc.Index().Add(v2)
	if !rc.Index().Has(old) || !rc.Index().Has(v2) || rc.Index().Len() != len(recs)+1 {
		t.Fatalf("two versions of %s: Has %v/%v, %d entries", old.ID, rc.Index().Has(old), rc.Index().Has(v2), rc.Index().Len())
	}
	rc.Index().Remove(old)
	if rc.Index().Has(old) || !rc.Index().Has(v2) || rc.Index().Tokens(old, 0) != nil || rc.Index().Tokens(v2, 0) == nil {
		t.Fatal("removing one version did not keep exactly the other's entry")
	}
	uncached := reg.Counter("matching.uncached_compares")
	for _, other := range recs[1:] {
		before := uncached.Value()
		if got, want := rc.Compare(v2, other), plain.Compare(v2, other); got != want {
			t.Errorf("%s vs %s: %v, uncached %v", v2.ID, other.ID, got, want)
		}
		if uncached.Value() != before {
			t.Fatalf("%s vs %s was not scored from the cache", v2.ID, other.ID)
		}
	}
}

// BenchmarkBuildFeatureIndex builds the title index of a tenth of
// link_scale: 35,000 lean scale records, on 2 workers.
func BenchmarkBuildFeatureIndex(b *testing.B) {
	recs := datagen.ScaleRecords(datagen.ScaleConfig{Seed: 42, NumRecords: 35_000, GroupSize: 8})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildFeatureIndex(recs, NewRecordComparator(FieldWeight{Attr: "title", Weight: 1, Metric: Jaccard}), 2)
	}
}
