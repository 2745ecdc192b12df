package source

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/datagen"
)

func streamWeb(seed int64) *data.Dataset {
	w := datagen.NewWorld(datagen.WorldConfig{Seed: seed, NumEntities: 40})
	web := datagen.BuildWeb(w, datagen.SourceConfig{
		Seed: seed + 1, NumSources: 6, DirtLevel: 1,
		IdentifierRate: 0.9, Heterogeneity: 0.3,
	})
	return web.Dataset
}

// flaky fails its first transient fetches with ErrTransient, truncates
// the next truncated ones to a prefix of its log, then behaves.
type flaky struct {
	meta      *data.Source
	log       []Delta
	transient int
	truncated int
}

func (f *flaky) Meta() *data.Source { return f.meta }

func (f *flaky) FetchDeltas(ctx context.Context) ([]Delta, error) {
	if f.transient > 0 {
		f.transient--
		return nil, ErrTransient
	}
	if f.truncated > 0 {
		f.truncated--
		return f.log[:len(f.log)/2], nil
	}
	return f.log, ctx.Err()
}

// TestFleetStreamers runs every case against two fleets through the one
// watch and the one fleet producer: a dataset's upsert-only logs
// ("records") and the same dataset churned with updates and deletes
// ("deltas").
func TestFleetStreamers(t *testing.T) {
	d := streamWeb(1)
	churned, _, _ := ChurnSources(d, ChurnConfig{Seed: 1, UpdateRate: 0.2, DeleteRate: 0.1})
	t.Run("records", func(t *testing.T) { testFleet(t, FromDataset(d)) })
	t.Run("deltas", func(t *testing.T) { testFleet(t, churned) })
}

func testFleet(t *testing.T, fleet []DeltaSource) {
	seqs := map[string][]Delta{} // source ID → canonical log
	for _, s := range fleet {
		seqs[s.Meta().ID] = s.(*DeltaStatic).Log
	}
	meta := fleet[0].Meta()
	seq := seqs[meta.ID]
	total := len(seq)
	ctx := context.Background()

	// drain collects a whole stream, failing on a stream error.
	drain := func(t *testing.T, fleet []DeltaSource, cfg StreamConfig) []DeltaEpoch {
		t.Helper()
		str, err := NewDeltaStreamer(ctx, fleet, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer str.Close()
		var eps []DeltaEpoch
		for ep := range str.C {
			eps = append(eps, ep)
		}
		if err := str.Err(); err != nil {
			t.Fatal(err)
		}
		return eps
	}

	t.Run("watch delivers the canonical sequence", func(t *testing.T) {
		w := newWatch(fleet[0], total, 7)
		var got []Delta
		for !w.Done() {
			batch, err := w.Poll(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(batch) == 0 || len(batch) > 7 {
				t.Fatalf("batch size %d with epoch size 7", len(batch))
			}
			got = append(got, batch...)
		}
		if deltaFingerprint(got) != deltaFingerprint(seq) {
			t.Fatal("delivered sequence differs from the canonical one")
		}
		if batch, err := w.Poll(ctx); batch != nil || err != nil {
			t.Fatalf("drained watch: %v %v", batch, err)
		}
	})

	t.Run("watch refetches through faults", func(t *testing.T) {
		// The epoch covers the whole source, so truncated payloads can
		// never cover the window and must be refetched.
		w := newWatch(&flaky{meta: meta, log: seq, transient: 2, truncated: 2}, total, total)
		batch, err := w.Poll(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if deltaFingerprint(batch) != deltaFingerprint(seq) {
			t.Fatal("faulted delivery diverged from the canonical sequence")
		}
		// With more faults than the retry budget the poll must fail,
		// classifiably.
		w = newWatch(&flaky{meta: meta, log: seq, transient: pollRetries + 1}, total, total)
		if _, err := w.Poll(ctx); !errors.Is(err, ErrTransient) {
			t.Fatalf("err = %v, want ErrTransient", err)
		}
	})

	t.Run("short source", func(t *testing.T) {
		w := newWatch(&flaky{meta: meta, log: seq, truncated: 50}, total, total)
		if _, err := w.Poll(ctx); !errors.Is(err, ErrShortSource) {
			t.Fatalf("err = %v, want ErrShortSource", err)
		}
		// The same through the producer: a source holding fewer items
		// than its declared total ends the stream with the error.
		str, err := NewDeltaStreamer(ctx, fleet, StreamConfig{Totals: map[string]int{meta.ID: total + 1}})
		if err != nil {
			t.Fatal(err)
		}
		defer str.Close()
		for range str.C {
		}
		if err := str.Err(); !errors.Is(err, ErrShortSource) {
			t.Fatalf("stream err = %v, want ErrShortSource", err)
		}
	})

	t.Run("seek clamps and resumes mid-stream", func(t *testing.T) {
		w := newWatch(fleet[0], total, 5)
		if _, err := w.Poll(ctx); err != nil {
			t.Fatal(err)
		}
		cursor := w.Cursor()
		// A fresh watch seeked to the persisted cursor continues the
		// exact sequence.
		w2 := newWatch(fleet[0], total, 5)
		w2.Seek(cursor)
		batch, err := w2.Poll(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if deltaFingerprint(batch) != deltaFingerprint(seq[cursor:cursor+len(batch)]) || len(batch) == 0 {
			t.Fatal("resumed batch differs from the canonical window")
		}
		if w2.Seek(-3); w2.Cursor() != 0 {
			t.Fatalf("Seek(-3) left the cursor at %d", w2.Cursor())
		}
		if w2.Seek(total + 9); w2.Cursor() != total || !w2.Done() {
			t.Fatalf("Seek past the end left the cursor at %d", w2.Cursor())
		}
	})

	t.Run("epochs are deterministic and complete", func(t *testing.T) {
		a, b := drain(t, fleet, StreamConfig{EpochSize: 9}), drain(t, fleet, StreamConfig{EpochSize: 9})
		if len(a) == 0 || len(a) != len(b) {
			t.Fatalf("epoch counts %d vs %d", len(a), len(b))
		}
		delivered := map[string][]Delta{}
		var last map[string]int
		for i := range a {
			itemsA, cursors := a[i].Deltas, a[i].Cursors
			if a[i].Seq != i {
				t.Errorf("epoch %d has seq %d", i, a[i].Seq)
			}
			if deltaFingerprint(itemsA) != deltaFingerprint(b[i].Deltas) {
				t.Fatalf("epoch %d differs across runs", i)
			}
			// Sources arrive in ascending ID order, each contributing
			// the window its cursor advanced over.
			for _, s := range fleet {
				m := s.Meta()
				n := cursors[m.ID] - len(delivered[m.ID])
				delivered[m.ID] = append(delivered[m.ID], itemsA[:n]...)
				itemsA = itemsA[n:]
			}
			last = cursors
		}
		for id, seq := range seqs {
			if deltaFingerprint(delivered[id]) != deltaFingerprint(seq) || last[id] != len(seq) {
				t.Errorf("source %s: delivered sequence or final cursor %d differs from canonical (%d items)", id, last[id], len(seq))
			}
		}
	})

	t.Run("resume from cursors", func(t *testing.T) {
		all := drain(t, fleet, StreamConfig{EpochSize: 4})
		if len(all) < 3 {
			t.Fatalf("want ≥3 epochs, got %d", len(all))
		}
		// Resume from the cursors of epoch k-1: the remaining epochs
		// must be the uninterrupted run's tail, numbering included.
		at := len(all) / 2
		resumed := drain(t, fleet, StreamConfig{EpochSize: 4, Cursors: all[at-1].Cursors, StartSeq: at})
		if len(resumed) != len(all)-at {
			t.Fatalf("resumed %d epochs, want %d", len(resumed), len(all)-at)
		}
		for i, ep := range resumed {
			if ep.Seq != all[at+i].Seq || deltaFingerprint(ep.Deltas) != deltaFingerprint(all[at+i].Deltas) {
				t.Fatalf("resumed epoch %d differs from the uninterrupted run", i)
			}
		}
	})

	t.Run("cancel mid-send", func(t *testing.T) {
		cctx, cancel := context.WithCancel(ctx)
		str, err := NewDeltaStreamer(cctx, fleet, StreamConfig{EpochSize: 1})
		if err != nil {
			t.Fatal(err)
		}
		<-str.C // the producer is now ahead of the consumer, blocked on (or about to block on) a send
		cancel()
		str.Close() // must return: the producer observes ctx inside the send
		for range str.C {
		}
		if err := str.Err(); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	})

	t.Run("duplicate IDs", func(t *testing.T) {
		dup := append(append([]DeltaSource(nil), fleet...), fleet[0])
		if _, err := NewDeltaStreamer(ctx, dup, StreamConfig{}); err == nil || !strings.Contains(err.Error(), "duplicate") {
			t.Fatalf("err = %v, want a duplicate-ID rejection", err)
		}
	})

	t.Run("unknown totals", func(t *testing.T) {
		wrapped := []DeltaSource{&flaky{meta: meta, log: seq}} // not the static adapter: totals required
		if _, err := NewDeltaStreamer(ctx, wrapped, StreamConfig{}); err == nil || !strings.Contains(err.Error(), "total") {
			t.Fatalf("err = %v, want a missing-total rejection", err)
		}
		if got := drain(t, wrapped, StreamConfig{Totals: map[string]int{meta.ID: total}}); len(got) == 0 {
			t.Fatal("declared total delivered no epochs")
		}
	})
}
