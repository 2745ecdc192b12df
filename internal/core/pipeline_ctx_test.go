package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/datagen"
)

// bigWeb builds a workload heavy enough that a full pipeline run takes
// a comfortably measurable amount of wall time.
func bigWeb(t testing.TB) *datagen.Web {
	t.Helper()
	w := datagen.NewWorld(datagen.WorldConfig{Seed: 171, NumEntities: 400})
	return datagen.BuildWeb(w, datagen.SourceConfig{
		Seed: 172, NumSources: 30, DirtLevel: 2,
		IdentifierRate: 0.9, Heterogeneity: 0.6,
		HeadFraction: 0.5, TailCoverage: 0.4,
	})
}

func TestRunCtxPreCancelled(t *testing.T) {
	web := testWeb(t, 1, 0.9)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := New(Config{}).RunCtx(ctx, web.Dataset)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("pre-cancelled run still took %v", elapsed)
	}
}

// TestRunCtxCancelMidRun pins the tentpole cancellation contract: a
// context cancelled early in the run stops the pipeline at the next
// chunk boundary, returning context.Canceled well before the
// uncancelled wall time.
func TestRunCtxCancelMidRun(t *testing.T) {
	web := bigWeb(t)
	cfg := Config{Workers: 2}

	start := time.Now()
	if _, err := New(cfg).Run(web.Dataset); err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// Fire while blocking/matching is still chewing.
		time.Sleep(full / 20)
		cancel()
	}()
	start = time.Now()
	_, err := New(cfg).RunCtx(ctx, web.Dataset)
	cancelled := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if cancelled >= full/2 {
		t.Fatalf("cancelled run took %v, uncancelled %v — cancellation is not cutting work short", cancelled, full)
	}
}

func TestRunCtxStageTimeout(t *testing.T) {
	web := bigWeb(t)
	_, err := New(Config{Workers: 2, StageTimeout: time.Millisecond}).RunCtx(context.Background(), web.Dataset)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
}

func TestRunCtxNilIsBackground(t *testing.T) {
	web := testWeb(t, 1, 0.9)
	//nolint:staticcheck // the nil-tolerance contract is the point
	rep, err := New(Config{}).RunCtx(nil, web.Dataset)
	if err != nil || rep.Fusion == nil {
		t.Fatalf("nil-ctx run: %v", err)
	}
}

func TestSentinelErrors(t *testing.T) {
	if _, err := BuildFuser(nil, "bogus", 0, nil); !errors.Is(err, ErrUnknownFuser) {
		t.Errorf("BuildFuser(bogus) = %v, want ErrUnknownFuser", err)
	}
	if err := (Config{Clusterer: "bogus"}).Validate(); !errors.Is(err, ErrUnknownClusterer) {
		t.Errorf("Validate clusterer = %v, want ErrUnknownClusterer", err)
	}
	if err := (Config{Order: Order(9)}).Validate(); !errors.Is(err, ErrUnknownOrder) {
		t.Errorf("Validate order = %v, want ErrUnknownOrder", err)
	}
	if err := (Config{Fuser: "bogus"}).Validate(); !errors.Is(err, ErrUnknownFuser) {
		t.Errorf("Validate fuser = %v, want ErrUnknownFuser", err)
	}
}
