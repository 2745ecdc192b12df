package source_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/source"
	"repro/internal/source/faults"
)

// testWeb builds a small seeded source fleet.
func testWeb(t testing.TB) *datagen.Web {
	t.Helper()
	w := datagen.NewWorld(datagen.WorldConfig{
		Seed: 7, NumEntities: 30, Categories: []string{"camera"},
	})
	return datagen.BuildWeb(w, datagen.SourceConfig{
		Seed: 8, NumSources: 12, DirtLevel: 1,
		IdentifierRate: 0.9, HeadFraction: 0.4, TailCoverage: 0.3,
	})
}

// fastCfg keeps retry schedules in the microsecond range for tests.
func fastCfg(workers int) source.IngestConfig {
	return source.IngestConfig{
		Workers:     workers,
		BaseBackoff: time.Microsecond,
		MaxBackoff:  10 * time.Microsecond,
	}
}

func TestIngestCleanFleet(t *testing.T) {
	web := testWeb(t)
	srcs := source.FromWeb(web)
	d, rep, err := source.NewIngestor(fastCfg(4)).Ingest(context.Background(), srcs)
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if rep.Succeeded != len(srcs) || len(rep.Dropped) != 0 || len(rep.Degraded) != 0 {
		t.Fatalf("clean fleet report = %+v", rep)
	}
	if d.NumRecords() != web.Dataset.NumRecords() || d.NumSources() != web.Dataset.NumSources() {
		t.Fatalf("ingested %d/%d records, %d/%d sources",
			d.NumRecords(), web.Dataset.NumRecords(), d.NumSources(), web.Dataset.NumSources())
	}
	// The round trip preserves the dataset byte-for-byte.
	var got, want bytes.Buffer
	if err := d.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if err := web.Dataset.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("ingested dataset differs from the direct dataset")
	}
	if rep.Attempts != len(srcs) {
		t.Fatalf("clean fleet used %d attempts for %d sources", rep.Attempts, len(srcs))
	}
}

// TestIngestPartialDrop pins the graceful-degradation contract: under
// a heavy fault mix the ingest completes, and Report.Dropped lists
// exactly the sources absent from the assembled dataset.
func TestIngestPartialDrop(t *testing.T) {
	web := testWeb(t)
	fleet := faults.WrapAll(source.FromWeb(web), faults.Config{
		Seed:          99,
		TransientRate: 0.6, // ~0.6^3 chance a source exhausts 3 attempts
		DeadRate:      0.25,
	})
	cfg := fastCfg(4)
	cfg.Retries = 2
	d, rep, err := source.NewIngestor(cfg).Ingest(context.Background(), fleet)
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if len(rep.Dropped) == 0 {
		t.Fatal("fault mix dropped nothing; test needs a harsher seed")
	}
	if rep.Succeeded == 0 {
		t.Fatal("fault mix killed every source; test needs a kinder seed")
	}
	// Dropped == sources absent from the dataset, exactly.
	var absent []string
	for _, s := range web.Dataset.Sources() {
		if d.Source(s.ID) == nil {
			absent = append(absent, s.ID)
		}
	}
	if fmt.Sprint(absent) != fmt.Sprint(rep.Dropped) {
		t.Fatalf("Dropped = %v, absent from dataset = %v", rep.Dropped, absent)
	}
	// Survivors carry all their records (no partial sources here: the
	// truncation fault is off).
	for _, s := range d.Sources() {
		if got, want := len(d.SourceRecords(s.ID)), len(web.Dataset.SourceRecords(s.ID)); got != want {
			t.Fatalf("source %s ingested %d/%d records", s.ID, got, want)
		}
	}
	if rep.Total != rep.Succeeded+len(rep.Dropped) {
		t.Fatalf("report does not balance: %+v", rep)
	}
}

// TestIngestDeterministic pins byte-identical datasets AND reports
// across 20 repeats and worker counts 1, 2 and 8, under a fault mix.
// Each repeat re-wraps the fleet: the injector's RNG state advances
// with every fetch, so reproducibility is anchored at Wrap time.
func TestIngestDeterministic(t *testing.T) {
	web := testWeb(t)
	base := source.FromWeb(web)
	fcfg := faults.Config{
		Seed:          4242,
		TransientRate: 0.4,
		DeadRate:      0.15,
		TruncateRate:  0.2,
		CorruptRate:   0.05,
	}
	run := func(workers int) (string, string) {
		cfg := fastCfg(workers)
		cfg.Retries = 3
		d, rep, err := source.NewIngestor(cfg).Ingest(context.Background(), faults.WrapAll(base, fcfg))
		if err != nil {
			t.Fatalf("Ingest(workers=%d): %v", workers, err)
		}
		var buf bytes.Buffer
		if err := d.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		rj, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return buf.String(), string(rj)
	}
	wantD, wantR := run(1)
	for rep := 0; rep < 20; rep++ {
		for _, workers := range []int{1, 2, 8} {
			gotD, gotR := run(workers)
			if gotD != wantD {
				t.Fatalf("repeat %d workers %d: dataset diverged", rep, workers)
			}
			if gotR != wantR {
				t.Fatalf("repeat %d workers %d: report diverged:\n%s\nvs\n%s", rep, workers, gotR, wantR)
			}
		}
	}
}

func TestIngestMinSources(t *testing.T) {
	web := testWeb(t)
	fleet := faults.WrapAll(source.FromWeb(web), faults.Config{Seed: 1, DeadRate: 1})
	cfg := fastCfg(2)
	cfg.Retries = 1
	d, rep, err := source.NewIngestor(cfg).Ingest(context.Background(), fleet)
	if !errors.Is(err, source.ErrTooFewSources) {
		t.Fatalf("want ErrTooFewSources, got %v", err)
	}
	// The partial dataset and full report still come back.
	if d == nil || rep == nil {
		t.Fatal("partial results missing alongside ErrTooFewSources")
	}
	if rep.Succeeded != 0 || len(rep.Dropped) != rep.Total {
		t.Fatalf("all-dead fleet report = %+v", rep)
	}
	// Dead sources fail permanently: one attempt each, no retries.
	if rep.Attempts != rep.Total {
		t.Fatalf("permanent failures retried: %d attempts for %d sources", rep.Attempts, rep.Total)
	}
}

func TestIngestCancellation(t *testing.T) {
	web := testWeb(t)
	srcs := source.FromWeb(web)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := source.NewIngestor(fastCfg(4)).Ingest(ctx, srcs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestIngestDuplicateSourceID(t *testing.T) {
	s := &data.Source{ID: "dup"}
	fleet := []source.DeltaSource{&source.DeltaStatic{Src: s}, &source.DeltaStatic{Src: s}}
	if _, _, err := source.NewIngestor(fastCfg(1)).Ingest(context.Background(), fleet); err == nil {
		t.Fatal("duplicate source IDs must fail")
	}
}

// flaky fails its first n fetches with a transient error.
type flaky struct {
	src   *data.Source
	log   []source.Delta
	fails int
	calls int
}

func (f *flaky) Meta() *data.Source { return f.src }
func (f *flaky) FetchDeltas(ctx context.Context) ([]source.Delta, error) {
	f.calls++
	if f.calls <= f.fails {
		return nil, fmt.Errorf("flaky call %d: %w", f.calls, source.ErrTransient)
	}
	return f.log, nil
}

func TestIngestRetriesRecover(t *testing.T) {
	src := &data.Source{ID: "s1"}
	rec := data.NewRecord("r1", "s1").Set("title", data.String("x"))
	fleet := []source.DeltaSource{&flaky{src: src, log: []source.Delta{source.Upsert(rec)}, fails: 2}}
	cfg := fastCfg(1)
	cfg.Retries = 3
	d, rep, err := source.NewIngestor(cfg).Ingest(context.Background(), fleet)
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if d.NumRecords() != 1 {
		t.Fatalf("recovered source lost its record: %d", d.NumRecords())
	}
	if len(rep.Degraded) != 1 || rep.Degraded[0] != "s1" {
		t.Fatalf("Degraded = %v, want [s1]", rep.Degraded)
	}
	if rep.Outcomes[0].Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", rep.Outcomes[0].Attempts)
	}
}

// panicking is a misbehaving source adapter.
type panicking struct{ src *data.Source }

func (p *panicking) Meta() *data.Source { return p.src }
func (p *panicking) FetchDeltas(ctx context.Context) ([]source.Delta, error) {
	panic("adapter bug")
}

func TestIngestFetchPanicIsDegradedNotFatal(t *testing.T) {
	good := &data.Source{ID: "good"}
	rec := data.NewRecord("g1", "good").Set("title", data.String("ok"))
	fleet := []source.DeltaSource{
		&panicking{src: &data.Source{ID: "bad"}},
		&source.DeltaStatic{Src: good, Log: []source.Delta{source.Upsert(rec)}},
	}
	cfg := fastCfg(2)
	cfg.Retries = 1
	d, rep, err := source.NewIngestor(cfg).Ingest(context.Background(), fleet)
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if d.NumRecords() != 1 || rep.Succeeded != 1 {
		t.Fatalf("panicking adapter took down the fleet: %+v", rep)
	}
	if len(rep.Dropped) != 1 || rep.Dropped[0] != "bad" {
		t.Fatalf("Dropped = %v, want [bad]", rep.Dropped)
	}
	if !strings.Contains(rep.Outcomes[0].Err, "panic") {
		t.Fatalf("outcome should surface the panic, got %q", rep.Outcomes[0].Err)
	}
}

// TestBreakerOpensAndRecovers drives the circuit breaker with a fake
// clock: repeated failures trip it, calls inside the cooldown are
// skipped without touching the source, and after the cooldown a
// successful probe closes it again.
func TestBreakerOpensAndRecovers(t *testing.T) {
	src := &data.Source{ID: "s1"}
	rec := data.NewRecord("r1", "s1").Set("title", data.String("x"))
	f := &flaky{src: src, log: []source.Delta{source.Upsert(rec)}, fails: 3}

	cfg := fastCfg(1)
	cfg.Retries = 2 // 3 attempts per Ingest = the breaker's threshold
	ing := source.NewIngestor(cfg)
	clock := time.Unix(1000, 0)
	ing.SetClock(func() time.Time { return clock })

	// First call: three transient failures trip the breaker.
	_, rep, err := ing.Ingest(context.Background(), []source.DeltaSource{f})
	if err != nil && !errors.Is(err, source.ErrTooFewSources) {
		t.Fatalf("Ingest: %v", err)
	}
	if rep.Outcomes[0].State != "dropped" || rep.Outcomes[0].Attempts != 3 {
		t.Fatalf("first call outcome = %+v", rep.Outcomes[0])
	}

	// Second call inside the cooldown: skipped, source untouched.
	calls := f.calls
	_, rep, err = ing.Ingest(context.Background(), []source.DeltaSource{f})
	if err == nil || !errors.Is(err, source.ErrTooFewSources) {
		t.Fatalf("skipped fleet should miss MinSources, got %v", err)
	}
	if rep.Outcomes[0].State != "skipped" || rep.Outcomes[0].Attempts != 0 {
		t.Fatalf("cooldown outcome = %+v", rep.Outcomes[0])
	}
	if f.calls != calls {
		t.Fatalf("skipped source was fetched anyway (%d → %d calls)", calls, f.calls)
	}

	// Third call after the (1 s) cooldown: half-open probe succeeds (the
	// flake budget is spent), breaker closes, records flow.
	clock = clock.Add(2 * time.Minute)
	d, rep, err := ing.Ingest(context.Background(), []source.DeltaSource{f})
	if err != nil {
		t.Fatalf("post-cooldown Ingest: %v", err)
	}
	if rep.Outcomes[0].State != "ok" || d.NumRecords() != 1 {
		t.Fatalf("post-cooldown outcome = %+v", rep.Outcomes[0])
	}
}

// TestIngestFoldsChangeLogs pins the fold: a re-upsert replaces the
// record and moves it to the end of its source, a delete removes only
// an ID this source holds, and Outcome.Records counts what is left.
func TestIngestFoldsChangeLogs(t *testing.T) {
	rec := func(id, src, title string) *data.Record {
		return data.NewRecord(id, src).Set("title", data.String(title))
	}
	a := &source.DeltaStatic{Src: &data.Source{ID: "a"}, Log: []source.Delta{
		source.Upsert(rec("a1", "a", "one")),
		source.Upsert(rec("a2", "a", "two")),
		source.Upsert(rec("a3", "a", "three")),
		source.Deletion("b1"), // b's record: not a's to delete
		source.Upsert(rec("a1", "a", "one, corrected")),
		source.Deletion("a2"),
		source.Deletion("a2"),
	}}
	b := &source.DeltaStatic{Src: &data.Source{ID: "b"}, Log: []source.Delta{
		source.Deletion("a1"), // a's record: not b's to delete
		source.Upsert(rec("b1", "b", "four")),
	}}
	d, rep, err := source.NewIngestor(fastCfg(2)).Ingest(context.Background(), []source.DeltaSource{b, a})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range d.Records() {
		got = append(got, r.ID+"="+r.Get("title").Str)
	}
	if want := "[a3=three a1=one, corrected b1=four]"; fmt.Sprint(got) != want {
		t.Fatalf("folded dataset = %v, want %s", got, want)
	}
	if rep.Records != 3 || rep.Outcomes[0].Records != 2 || rep.Outcomes[1].Records != 1 {
		t.Fatalf("live counts: report %d, outcomes %+v", rep.Records, rep.Outcomes)
	}

	// An upsert of an ID another source holds fails the ingest.
	thief := &source.DeltaStatic{Src: &data.Source{ID: "c"}, Log: []source.Delta{source.Upsert(rec("a1", "c", "stolen"))}}
	if _, _, err := source.NewIngestor(fastCfg(1)).Ingest(context.Background(), []source.DeltaSource{a, thief}); err == nil ||
		!strings.Contains(err.Error(), "duplicate record ID") {
		t.Fatalf("cross-source upsert: err = %v, want a duplicate-record error", err)
	}
}

// TestIngestMatchesStream pins batch/stream parity: Ingest folds a fleet
// into the same dataset a Stream holds after RunDeltas drains it — the
// same live IDs, in the same per-source order, with the same field
// values — for a churned fleet (10 % updates, 5 % deletes), clean and
// under the delta mangles, at workers {1, 2, 8}. Parity holds because
// every record ID belongs to one source.
func TestIngestMatchesStream(t *testing.T) {
	d := testWeb(t).Dataset
	ctx := context.Background()
	clean, totals, deleted := source.ChurnSources(d, source.ChurnConfig{Seed: 3, UpdateRate: 0.1, DeleteRate: 0.05})
	if len(deleted) == 0 {
		t.Fatal("churn deleted nothing; test needs a harsher seed")
	}
	mcfg := faults.DeltaConfig{Seed: 5, DupDeleteRate: 0.3, EarlyDeleteRate: 0.2, UpdateStormRate: 0.2}
	mangledTotals := map[string]int{}
	for _, s := range clean {
		ds := s.(*source.DeltaStatic)
		mangledTotals[ds.Src.ID] = faults.MangledTotal(ds.Src.ID, ds.Log, mcfg)
	}
	for _, tc := range []struct {
		name   string
		fleet  []source.DeltaSource
		totals map[string]int
	}{
		{"clean", clean, totals},
		{"mangled", faults.WrapDeltasAll(clean, mcfg), mangledTotals},
	} {
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				batch, rep, err := source.NewIngestor(fastCfg(workers)).Ingest(ctx, tc.fleet)
				if err != nil {
					t.Fatal(err)
				}
				st, err := core.NewStream(core.StreamConfig{EpochSize: 7, Workers: workers}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := st.RunDeltas(ctx, tc.fleet, tc.totals); err != nil {
					t.Fatal(err)
				}
				streamed := st.Dataset()
				if want := d.NumRecords() - len(deleted); batch.NumRecords() != want || rep.Records != want {
					t.Fatalf("batch holds %d records (report %d), want %d live", batch.NumRecords(), rep.Records, want)
				}
				if streamed.NumRecords() != batch.NumRecords() {
					t.Fatalf("stream holds %d records, batch %d", streamed.NumRecords(), batch.NumRecords())
				}
				for _, s := range batch.Sources() {
					if got, want := recordsOf(streamed, s.ID), recordsOf(batch, s.ID); got != want {
						t.Fatalf("source %s differs:\n stream %s\n batch  %s", s.ID, got, want)
					}
				}
			})
		}
	}
}

// recordsOf renders a source's live records, in order, with their
// field values.
func recordsOf(d *data.Dataset, src string) string {
	var b strings.Builder
	for _, r := range d.SourceRecords(src) {
		b.WriteString(r.String())
		b.WriteByte(';')
	}
	return b.String()
}

// TestIngestZeroAllocPerRecord pins the overhead of ingestion vs
// direct dataset construction: the delta must not scale with records.
func TestIngestZeroAllocPerRecord(t *testing.T) {
	web := testWeb(t)
	srcs := source.FromWeb(web)
	n := web.Dataset.NumRecords()
	if n == 0 {
		t.Fatal("empty web")
	}

	direct := testing.AllocsPerRun(10, func() {
		d := data.NewDataset()
		for _, s := range web.Dataset.Sources() {
			if err := d.AddSource(s); err != nil {
				t.Fatal(err)
			}
			for _, r := range web.Dataset.SourceRecords(s.ID) {
				if err := d.AddRecord(r); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
	ing := source.NewIngestor(fastCfg(1))
	ctx := context.Background()
	ingested := testing.AllocsPerRun(10, func() {
		if _, _, err := ing.Ingest(ctx, srcs); err != nil {
			t.Fatal(err)
		}
	})
	perRecord := (ingested - direct) / float64(n)
	if perRecord > 0.5 {
		t.Fatalf("ingestion overhead = %.2f allocs/record (ingest %.0f, direct %.0f, %d records)",
			perRecord, ingested, direct, n)
	}
}

func BenchmarkIngestNoFaults(b *testing.B) {
	web := testWeb(b)
	srcs := source.FromWeb(web)
	ing := source.NewIngestor(fastCfg(0))
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ing.Ingest(ctx, srcs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIngestTransientFaults(b *testing.B) {
	web := testWeb(b)
	base := source.FromWeb(web)
	cfg := fastCfg(0)
	cfg.Retries = 3
	ing := source.NewIngestor(cfg)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fleet := faults.WrapAll(base, faults.Config{Seed: 7, TransientRate: 0.3})
		if _, _, err := ing.Ingest(ctx, fleet); err != nil {
			b.Fatal(err)
		}
	}
}
