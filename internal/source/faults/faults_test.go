package faults_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/source"
	"repro/internal/source/faults"
)

func staticSource(id string, n int) *source.DeltaStatic {
	s := &data.Source{ID: id}
	recs := make([]*data.Record, 0, n)
	for i := 0; i < n; i++ {
		recs = append(recs, data.NewRecord(
			id+"-r"+string(rune('a'+i)), id).Set("title", data.String("value")))
	}
	return &source.DeltaStatic{Src: s, Log: source.UpsertLog(recs)}
}

func TestDeadSourceIsPermanent(t *testing.T) {
	// DeadRate 1 kills every source regardless of seed.
	f := faults.Wrap(staticSource("s1", 3), faults.Config{Seed: 1, DeadRate: 1})
	for i := 0; i < 3; i++ {
		if _, err := f.FetchDeltas(context.Background()); !errors.Is(err, source.ErrPermanent) {
			t.Fatalf("fetch %d: want ErrPermanent, got %v", i, err)
		}
	}
}

func TestTransientWrapsSentinel(t *testing.T) {
	f := faults.Wrap(staticSource("s1", 3), faults.Config{Seed: 1, TransientRate: 1})
	if _, err := f.FetchDeltas(context.Background()); !errors.Is(err, source.ErrTransient) {
		t.Fatalf("want ErrTransient, got %v", err)
	}
}

func TestCorruptionClonesRecords(t *testing.T) {
	inner := staticSource("s1", 4)
	orig := inner.Log
	snapshot := make([]string, len(orig))
	for i, d := range orig {
		snapshot[i] = d.Record.String()
	}
	f := faults.Wrap(inner, faults.Config{Seed: 1, CorruptRate: 1})
	log, err := f.FetchDeltas(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	mangled := 0
	for i, d := range log {
		if d.ID != orig[i].ID || d.Op != source.OpUpsert {
			t.Fatalf("corruption rewrote delta %d to %v %s", i, d.Op, d.ID)
		}
		if d.Record.String() != snapshot[i] {
			mangled++
		}
	}
	if mangled != len(log) {
		t.Fatalf("CorruptRate 1 mangled %d/%d records", mangled, len(log))
	}
	// The wrapped source's own log and records are untouched.
	for i, d := range orig {
		if d.Record.String() != snapshot[i] {
			t.Fatalf("corruption mutated the original record %d: %s", i, d.Record)
		}
	}
}

func TestTruncationKeepsPrefix(t *testing.T) {
	f := faults.Wrap(staticSource("s1", 4), faults.Config{
		Seed: 1, TruncateRate: 1, TruncateFraction: 0.5,
	})
	log, err := f.FetchDeltas(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(log) != 2 {
		t.Fatalf("truncated to %d deltas, want 2", len(log))
	}
}

func TestLatencySpikeHonoursContext(t *testing.T) {
	f := faults.Wrap(staticSource("s1", 1), faults.Config{
		Seed: 1, LatencyRate: 1, Latency: time.Hour,
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := f.FetchDeltas(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("latency spike ignored the context deadline")
	}
}

// TestScheduleDeterminism: two wraps with the same seed produce the
// same fault schedule; a different seed produces a different one.
func TestScheduleDeterminism(t *testing.T) {
	trace := func(seed int64) []bool {
		f := faults.Wrap(staticSource("s1", 4), faults.Config{Seed: seed, TransientRate: 0.5})
		var out []bool
		for i := 0; i < 32; i++ {
			_, err := f.FetchDeltas(context.Background())
			out = append(out, err == nil)
		}
		return out
	}
	a, b := trace(42), trace(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at fetch %d", i)
		}
	}
	c := trace(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 32-fetch schedules")
	}
}
