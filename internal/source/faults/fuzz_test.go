package faults_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/source"
	"repro/internal/source/faults"
)

// These fuzz targets verify PROPERTIES that must hold across the whole
// (seed, fault-rate) input space, not just the hardcoded values the
// unit tests pin:
//
//   - the same seed always produces the same fault schedule;
//   - a faulted ingest feeding the full pipeline never panics and is
//     deterministic end to end (same seed+rate ⇒ same report shape).
//
// Run with `go test -fuzz FuzzIngestPipeline ./internal/source/faults`
// to explore; the seed corpus below runs on every plain `go test`.

// clampRate folds an arbitrary fuzzed float into a valid probability.
// NaN and infinities map to 0 so the target never rejects an input.
func clampRate(r float64) float64 {
	if math.IsNaN(r) || math.IsInf(r, 0) {
		return 0
	}
	return math.Abs(r) - math.Floor(math.Abs(r))
}

// FuzzScheduleDeterminism: two wraps with the same (seed, rate) produce
// the same per-fetch fault schedule for any seed, not just 42.
func FuzzScheduleDeterminism(f *testing.F) {
	f.Add(int64(0), 0.0)
	f.Add(int64(-1), 1.0)
	f.Add(int64(math.MaxInt64), 0.5)
	f.Add(int64(math.MinInt64), 0.25)
	f.Add(int64(42), 0.5)
	f.Add(int64(7), 0.999)

	f.Fuzz(func(t *testing.T, seed int64, rate float64) {
		rate = clampRate(rate)
		trace := func() []bool {
			fs := faults.Wrap(staticSource("s1", 4), faults.Config{
				Seed: seed, TransientRate: rate, DeadRate: rate / 4,
			})
			out := make([]bool, 0, 32)
			for i := 0; i < 32; i++ {
				_, err := fs.FetchDeltas(context.Background())
				out = append(out, err == nil)
			}
			return out
		}
		a, b := trace(), trace()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d rate %f: schedule diverged at fetch %d", seed, rate, i)
			}
		}
	})
}

// FuzzIngestPipeline drives the full ingest→pipeline path under an
// arbitrary fault mix. Whatever the (seed, rate), the run must not
// panic, must fail only with the documented ingest error, and must be
// byte-for-byte repeatable: a second identical run yields the same
// surviving sources, candidates, matches and clusters.
func FuzzIngestPipeline(f *testing.F) {
	f.Add(int64(0), 0.0)
	f.Add(int64(1), 0.3)
	f.Add(int64(-1), 0.9)
	f.Add(int64(math.MaxInt64), 0.5)
	f.Add(int64(42), 1.0)

	// One fixed corpus for every fuzz input; the faults are what vary.
	w := datagen.NewWorld(datagen.WorldConfig{Seed: 71, NumEntities: 12})
	web := datagen.BuildWeb(w, datagen.SourceConfig{
		Seed: 72, NumSources: 5, DirtLevel: 1,
		IdentifierRate: 0.9, Heterogeneity: 0.4,
		HeadFraction: 0.4, TailCoverage: 0.3,
	})

	f.Fuzz(func(t *testing.T, seed int64, rate float64) {
		rate = clampRate(rate)
		run := func() (string, error) {
			fleet := faults.WrapAll(source.FromDataset(web.Dataset), faults.Config{
				Seed:          seed,
				TransientRate: rate,
				DeadRate:      rate / 4,
				CorruptRate:   rate / 4,
				TruncateRate:  rate / 4,
			})
			ing := source.NewIngestor(source.IngestConfig{Workers: 2})
			d, irep, err := ing.Ingest(context.Background(), fleet)
			if err != nil {
				return "", err
			}
			rep, err := core.New(core.Config{Workers: 2}).Run(d)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("ok=%d drop=%v recs=%d cand=%d match=%d clus=%d",
				irep.Succeeded, irep.Dropped, d.NumRecords(),
				rep.Candidates, len(rep.Matched), len(rep.Clusters)), nil
		}
		sum1, err1 := run()
		if err1 != nil && !errors.Is(err1, source.ErrTooFewSources) {
			t.Fatalf("seed %d rate %f: unexpected ingest error: %v", seed, rate, err1)
		}
		sum2, err2 := run()
		if (err1 == nil) != (err2 == nil) || sum1 != sum2 {
			t.Fatalf("seed %d rate %f: nondeterministic run:\n  %q (%v)\n  %q (%v)",
				seed, rate, sum1, err1, sum2, err2)
		}
	})
}
