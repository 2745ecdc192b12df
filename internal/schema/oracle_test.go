package schema

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/datagen"
)

// testColumns builds the column view of d under default profiles.
func testColumns(t testing.TB, d *data.Dataset) *Columns {
	t.Helper()
	c, err := NewColumns(context.Background(), d, Profiler{}.Build(d))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// testEvidence is NewLinkageEvidence over testColumns.
func testEvidence(t testing.TB, d *data.Dataset, clusters data.Clustering) *LinkageEvidence {
	t.Helper()
	le, err := NewLinkageEvidence(context.Background(), testColumns(t, d), clusters, 0)
	if err != nil {
		t.Fatal(err)
	}
	return le
}

// testTransforms is DiscoverTransforms over testColumns.
func testTransforms(t testing.TB, d *data.Dataset, clusters data.Clustering, ms *MediatedSchema, minSupport int) []Transform {
	t.Helper()
	ts, err := DiscoverTransforms(context.Background(), testColumns(t, d), clusters, ms, minSupport)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

var oracleWorkers = []int{1, 2, 8}

// oracleWeb is a heterogeneous web sized for the reference: its
// agglomeration re-sums every cluster pair each round and its evidence
// tokenises both names on every call, and both costs follow the profile
// count, which follows sources × attributes rather than entities.
func oracleWeb(seed int64, sources, attrsPerCat int) *datagen.Web {
	w := datagen.NewWorld(datagen.WorldConfig{Seed: seed, NumEntities: 60, AttrsPerCat: attrsPerCat})
	return datagen.BuildWeb(w, datagen.SourceConfig{
		Seed: seed, NumSources: sources, DirtLevel: 1, IdentifierRate: .9,
		Heterogeneity: .5, HeadFraction: .4, TailCoverage: .3,
	})
}

// assertEvidenceTables compares the three evidence tables cell by cell
// over every ordered pair of profiles, absent map keys reading as 0.
func assertEvidenceTables(t *testing.T, profiles []*Profile, ref *refLinkageEvidence, le *LinkageEvidence) {
	t.Helper()
	for _, a := range profiles {
		for _, b := range profiles {
			k := pairKey(a.SourceAttr, b.SourceAttr)
			agree, total, stability := le.support(a.SourceAttr, b.SourceAttr)
			if agree != ref.agree[k] || total != ref.total[k] || stability != ref.stability[k] {
				t.Fatalf("%v × %v: agree/total/stability = %v/%v/%v, reference %v/%v/%v",
					a.SourceAttr, b.SourceAttr, agree, total, stability, ref.agree[k], ref.total[k], ref.stability[k])
			}
		}
	}
}

// assertSameSchema demands the same rendering and the very same
// membership probabilities, not close ones.
func assertSameSchema(t *testing.T, ref, got *MediatedSchema) {
	t.Helper()
	if ref.String() != got.String() {
		t.Fatalf("schema differs from reference:\n--- reference\n%s--- got\n%s", ref, got)
	}
	for i, ma := range ref.Attrs {
		if ma.Name != got.Attrs[i].Name || len(ma.Members) != len(got.Attrs[i].Members) {
			t.Fatalf("attr %d: %q with %d members, reference %q with %d", i,
				got.Attrs[i].Name, len(got.Attrs[i].Members), ma.Name, len(ma.Members))
		}
		for sa, p := range ma.Members {
			if q, ok := got.Attrs[i].Members[sa]; !ok || q != p {
				t.Fatalf("attr %d member %v: P = %v, reference %v", i, sa, q, p)
			}
		}
	}
	if !reflect.DeepEqual(ref.Of, got.Of) {
		t.Fatal("Of differs from reference")
	}
}

func assertSameDataset(t *testing.T, ref, got *data.Dataset) {
	t.Helper()
	if !reflect.DeepEqual(ref.Sources(), got.Sources()) {
		t.Fatal("normalised sources differ from reference")
	}
	rr, gr := ref.Records(), got.Records()
	if len(rr) != len(gr) {
		t.Fatalf("normalised dataset has %d records, reference %d", len(gr), len(rr))
	}
	for i := range rr {
		if !reflect.DeepEqual(rr[i], gr[i]) {
			t.Fatalf("normalised record %d differs:\n got %v\nwant %v", i, gr[i], rr[i])
		}
	}
}

var oracleThresholds = []float64{0.35, 0.5, 0.65}

// tabulate evaluates ev once per profile pair i < j — the calls Align
// makes — and returns an evidence function that replays the scores. The
// reference's name similarity costs a tokenise-and-compare per call, so
// the grid pays it once per web instead of once per threshold.
func tabulate(profiles []*Profile, ev MatchEvidence) MatchEvidence {
	n := len(profiles)
	index := make(map[*Profile]int, n)
	scores := make([]float64, n*n)
	for i, a := range profiles {
		index[a] = i
		for j := i + 1; j < n; j++ {
			scores[i*n+j] = ev(a, profiles[j])
		}
	}
	return func(a, b *Profile) float64 { return scores[index[a]*n+index[b]] }
}

// assertSameScores compares two evidence functions on every pair i < j.
func assertSameScores(t *testing.T, what string, profiles []*Profile, ref, got MatchEvidence) {
	t.Helper()
	for i, a := range profiles {
		for _, b := range profiles[i+1:] {
			if r, g := ref(a, b), got(a, b); r != g {
				t.Fatalf("%s(%v, %v) = %v, reference %v", what, a.SourceAttr, b.SourceAttr, g, r)
			}
		}
	}
}

// assertStageMatchesReference runs the whole alignment stage — evidence,
// Align, transforms, normalisation — through the reference and through
// the column view, at every threshold and worker count, and compares
// each product.
func assertStageMatchesReference(t *testing.T, d *data.Dataset, clusters data.Clustering) {
	t.Helper()
	ctx := context.Background()
	profiles := Profiler{}.Build(d)
	refLE := refNewLinkageEvidence(d, clusters)
	refBlend := tabulate(profiles, refLE.Blend)
	refAgreeOnly := tabulate(profiles, refLE.BlendAgreementOnly)
	refPlain := tabulate(profiles, refCombined)
	assertSameScores(t, "Combined", profiles, refPlain, Combined)

	cols, err := NewColumns(ctx, d, profiles)
	if err != nil {
		t.Fatal(err)
	}
	assertSameScores(t, "Columns.Combined", profiles, refPlain, cols.Combined)
	evidence := map[int]*LinkageEvidence{}
	for _, workers := range oracleWorkers {
		le, err := NewLinkageEvidence(ctx, cols, clusters, workers)
		if err != nil {
			t.Fatal(err)
		}
		assertEvidenceTables(t, profiles, refLE, le)
		assertSameScores(t, "Blend", profiles, refBlend, le.Blend)
		assertSameScores(t, "BlendAgreementOnly", profiles, refAgreeOnly, le.BlendAgreementOnly)
		assertSameScores(t, "Score", profiles, refLE.Score, le.Score)
		evidence[workers] = le
	}

	for _, threshold := range oracleThresholds {
		refMS, err := refAlign(Aligner{Evidence: refBlend, Threshold: threshold}, profiles)
		if err != nil {
			t.Fatal(err)
		}
		refTS, _ := refDiscoverTransforms(ctx, d, clusters, refMS, 3)
		refND := refNewNormalizer(refMS, refTS).ApplyAll(d)
		refSchemaFirst, err := refAlign(Aligner{Evidence: refPlain, Threshold: threshold}, profiles)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range oracleWorkers {
			ms, err := Aligner{Evidence: evidence[workers].Blend, Threshold: threshold, Workers: workers}.Align(profiles)
			if err != nil {
				t.Fatal(err)
			}
			assertSameSchema(t, refMS, ms)
			ts, err := DiscoverTransforms(ctx, cols, clusters, ms, 3)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(refTS, ts) {
				t.Fatalf("threshold %v: transforms differ from reference:\n got %+v\nwant %+v", threshold, ts, refTS)
			}
			assertSameDataset(t, refND, NewNormalizer(ms, ts).ApplyAll(cols))

			// Without linkage evidence, as the schema-first pipeline aligns.
			ms, err = Aligner{Evidence: cols.Combined, Threshold: threshold, Workers: workers}.Align(profiles)
			if err != nil {
				t.Fatal(err)
			}
			assertSameSchema(t, refSchemaFirst, ms)
		}
	}
}

// TestAlignmentMatchesReference is the oracle grid: generated webs by
// seed and width, every threshold the ensemble uses, every worker count.
func TestAlignmentMatchesReference(t *testing.T) {
	for _, seed := range []int64{42, 7, 1} {
		for _, sources := range []int{5, 20} {
			t.Run(fmt.Sprintf("seed%d/sources%d", seed, sources), func(t *testing.T) {
				web := oracleWeb(seed, sources, 4)
				assertStageMatchesReference(t, web.Dataset, web.Dataset.GroundTruthClusters())
			})
		}
	}
}

// edgeDataset is a hand-built input holding the cases a generated web
// rarely produces; each is named where it is built.
func edgeDataset(t *testing.T) (*data.Dataset, data.Clustering) {
	t.Helper()
	d := data.NewDataset()
	for _, s := range []string{"s1", "s2", "s3"} {
		if err := d.AddSource(&data.Source{ID: s}); err != nil {
			t.Fatal(err)
		}
	}
	add := func(r *data.Record) string {
		if err := d.AddRecord(r); err != nil {
			t.Fatal(err)
		}
		return r.ID
	}
	day := time.Date(2013, 4, 8, 0, 0, 0, 0, time.UTC)
	var clusters data.Clustering
	// 70 entities carry a numeric pair, more than the 64-cluster ratio
	// cap: the ratio is a clean ×1000 up to cluster 63 and noise after,
	// so a scan that let later clusters in would lose the stability.
	for i := 0; i < 70; i++ {
		w := float64(100 + 7*i)
		kg := w / 1000
		if i >= 64 {
			kg = w / float64(3+i)
		}
		a := data.NewRecord(fmt.Sprintf("a%02d", i), "s1").
			Set("title", data.String(fmt.Sprintf("item %d", i))).
			Set("weight", data.Number(w)).
			Set("color", data.String([]string{"black", "white", "red"}[i%3])).
			Set("in stock", data.Bool(i%2 == 0)).
			Set("listed", data.Time(day.AddDate(0, 0, i%5)))
		b := data.NewRecord(fmt.Sprintf("b%02d", i), "s2").
			Set("title", data.String(fmt.Sprintf("item %d", i))).
			Set("item weight", data.Number(kg)).
			Set("colour", data.String([]string{"black", "white", "red"}[i%3])).
			Set("available", data.Bool(i%4 == 0)).
			Set("listed on", data.Time(day.AddDate(0, 0, i%5)))
		switch {
		case i%10 == 3:
			// Zero and negative numbers: no ratio from a zero, and a
			// negative median is refused.
			a.Set("weight", data.Number(0))
			b.Set("delta", data.Number(-float64(i)))
			a.Set("delta", data.Number(float64(i)))
		case i%10 == 5:
			// A value whose kind is not its profile's dominant kind.
			a.Set("weight", data.String("unknown"))
			b.Set("colour", data.Number(float64(i)))
		}
		cl := data.Cluster{add(a), add(b)}
		if i%7 == 0 {
			// Two records of one source in a cluster, and a third source
			// whose numbers never agree with anything.
			cl = append(cl, add(data.NewRecord(fmt.Sprintf("a%02d-dup", i), "s1").
				Set("weight", data.Number(w*1.01)).
				Set("color", data.String("blakc"))))
			cl = append(cl, add(data.NewRecord(fmt.Sprintf("c%02d", i), "s3").
				Set("mass", data.Number(-w)).
				Set("shade", data.String("black"))))
		}
		if i%9 == 0 {
			cl = append(cl, fmt.Sprintf("ghost%02d", i)) // ID absent from the dataset
		}
		clusters = append(clusters, cl)
		if i%11 == 0 {
			clusters = append(clusters, data.Cluster{}) // empty cluster
		}
	}
	return d, clusters
}

func TestAlignmentMatchesReferenceOnEdgeInputs(t *testing.T) {
	d, clusters := edgeDataset(t)
	assertStageMatchesReference(t, d, clusters)
	// The cap is what keeps weight ↔ item weight ratio-stable.
	le := testEvidence(t, d, clusters)
	if _, _, st := le.support(SourceAttr{"s1", "weight"}, SourceAttr{"s2", "item weight"}); st != 1 {
		t.Errorf("stability of the capped pair = %v, want 1", st)
	}
}

// TestAlignTiesMatchReference: an evidence function with exact ties
// exercises the `>=` rule — among maximal pairs the last in scan order
// merges — round after round.
func TestAlignTiesMatchReference(t *testing.T) {
	profiles := Profiler{}.Build(oracleWeb(3, 8, 4).Dataset)
	tied := func(a, b *Profile) float64 {
		if a.Source == b.Source {
			return 0
		}
		if a.Attr == b.Attr {
			return 0.75
		}
		return float64((len(a.Attr)+len(b.Attr))%3) * 0.25
	}
	for _, threshold := range []float64{0.25, 0.5, 0.75} {
		ref, err := refAlign(Aligner{Evidence: tied, Threshold: threshold}, profiles)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range oracleWorkers {
			got, err := Aligner{Evidence: tied, Threshold: threshold, Workers: workers}.Align(profiles)
			if err != nil {
				t.Fatal(err)
			}
			assertSameSchema(t, ref, got)
		}
	}
}

// TestEvidenceResolvesHandBuiltProfiles: evidence is keyed by SourceAttr,
// so a profile that never went through Profiler.Build, in a slice in any
// order, reads the same tables.
func TestEvidenceResolvesHandBuiltProfiles(t *testing.T) {
	d, clusters := alignedSample(t)
	le := testEvidence(t, d, clusters)
	ref := refNewLinkageEvidence(d, clusters)
	built := Profiler{}.Build(d)
	for _, a := range built {
		for _, b := range built {
			ha := &Profile{SourceAttr: a.SourceAttr, Kinds: a.Kinds, Values: a.Values, TokenFreq: a.TokenFreq}
			hb := &Profile{SourceAttr: b.SourceAttr, Kinds: b.Kinds, Values: b.Values, TokenFreq: b.TokenFreq}
			if got, want := le.Blend(ha, hb), ref.Blend(ha, hb); got != want {
				t.Errorf("Blend(%v, %v) = %v, reference %v", a.SourceAttr, b.SourceAttr, got, want)
			}
			if got, want := le.Score(ha, hb), ref.Score(ha, hb); got != want {
				t.Errorf("Score(%v, %v) = %v, reference %v", a.SourceAttr, b.SourceAttr, got, want)
			}
		}
	}
	stranger := &Profile{SourceAttr: SourceAttr{"s9", "weight"}}
	if got := le.Score(stranger, built[0]); got != 0 {
		t.Errorf("Score of an attribute outside the view = %v, want 0", got)
	}
}

// TestAlignmentConcurrentReaders shares one view between concurrent
// evidence scans and alignments, each running on the worker pool. Run it
// under -race -count=10.
func TestAlignmentConcurrentReaders(t *testing.T) {
	web := oracleWeb(11, 8, 4)
	d, clusters := web.Dataset, web.Dataset.GroundTruthClusters()
	profiles := Profiler{}.Build(d)
	cols, err := NewColumns(context.Background(), d, profiles)
	if err != nil {
		t.Fatal(err)
	}
	want := ""
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			le, err := NewLinkageEvidence(context.Background(), cols, clusters, 8)
			if err != nil {
				t.Error(err)
				return
			}
			ms, err := Aligner{Evidence: le.Blend, Workers: 8}.Align(profiles)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if want == "" {
				want = ms.String()
			} else if ms.String() != want {
				t.Error("concurrent alignments over one view disagree")
			}
		}()
	}
	wg.Wait()
}

func TestEvidenceCancelled(t *testing.T) {
	web := oracleWeb(5, 6, 4)
	d, clusters := web.Dataset, web.Dataset.GroundTruthClusters()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewColumns(ctx, d, Profiler{}.Build(d)); !errors.Is(err, context.Canceled) {
		t.Errorf("NewColumns under a cancelled context: err = %v", err)
	}
	cols := testColumns(t, d)
	for _, workers := range oracleWorkers {
		if _, err := NewLinkageEvidence(ctx, cols, clusters, workers); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: NewLinkageEvidence under a cancelled context: err = %v", workers, err)
		}
	}
	if _, err := DiscoverTransforms(ctx, cols, clusters, &MediatedSchema{}, 3); !errors.Is(err, context.Canceled) {
		t.Errorf("DiscoverTransforms under a cancelled context: err = %v", err)
	}
}

// TestAlignCancelledByEvidence cancels from inside the evidence function
// on its k-th call: Align must report the cancellation, and no evidence
// call may follow the rows in flight at that moment (one per worker).
func TestAlignCancelledByEvidence(t *testing.T) {
	profiles := Profiler{}.Build(oracleWeb(5, 6, 4).Dataset)
	n := len(profiles)
	const k = 100
	for _, workers := range oracleWorkers {
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int64
		ev := func(a, b *Profile) float64 {
			if calls.Add(1) == k {
				cancel()
			}
			return Combined(a, b)
		}
		_, err := Aligner{Evidence: ev, Ctx: ctx, Workers: workers}.Align(profiles)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if got, limit := calls.Load(), int64(k+workers*(n-1)); got > limit {
			t.Errorf("workers=%d: %d evidence calls after cancelling on call %d, want at most %d", workers, got, k, limit)
		}
		if total := int64(n * (n - 1) / 2); calls.Load() >= total {
			t.Fatalf("workers=%d: the matrix (%d pairs) was finished before the cancellation could show", workers, total)
		}
	}
}

// TestAlignCostCurve pins the shape of alignment's cost by counting, at
// the 50-source width where the rescanning agglomeration took longer
// than the rest of the batch job: evidence runs once per unordered
// profile pair, and after the initial fill a merge re-evaluates the
// merged cluster's row only — at most one linkage per live cluster —
// not every live pair.
func TestAlignCostCurve(t *testing.T) {
	profiles := Profiler{}.Build(oracleWeb(42, 50, 6).Dataset)
	n := len(profiles)
	if n < 700 {
		t.Fatalf("the 50-source web has %d profiles; the pin is meant for about 850", n)
	}
	var calls atomic.Int64
	seen := make([]atomic.Int32, n*n)
	index := map[*Profile]int{}
	for i, p := range profiles {
		index[p] = i
	}
	ev := func(a, b *Profile) float64 {
		calls.Add(1)
		i, j := index[a], index[b]
		if j < i {
			i, j = j, i
		}
		seen[i*n+j].Add(1)
		return Combined(a, b)
	}
	sim, err := evidenceMatrix(context.Background(), profiles, ev, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(n * (n - 1) / 2); calls.Load() != want {
		t.Errorf("evidence evaluated %d times for %d unordered pairs", calls.Load(), want)
	}
	for k := range seen {
		if c := seen[k].Load(); c > 1 {
			t.Fatalf("profile pair %d×%d evaluated %d times", k/n, k%n, c)
		}
	}

	ag := newAgglomeration(profiles, sim)
	if err := ag.run(context.Background(), 0.5); err != nil {
		t.Fatal(err)
	}
	merges := n - len(ag.active)
	if merges < n/2 {
		t.Fatalf("only %d merges over %d profiles; the web no longer exercises agglomeration", merges, n)
	}
	fill := n * (n - 1) / 2
	if after, limit := ag.evals-fill, merges*n; after > limit {
		t.Errorf("%d linkage evaluations after the initial fill over %d merges, want at most merges × clusters = %d",
			after, merges, limit)
	}
	rescan := 0 // what re-evaluating every live pair each round would make
	for live := n; live >= len(ag.active); live-- {
		rescan += live * (live - 1) / 2
	}
	t.Logf("%d profiles, %d merges: %d linkage evaluations after the fill, a rescan makes %d",
		n, merges, ag.evals-fill, rescan-fill)
}
