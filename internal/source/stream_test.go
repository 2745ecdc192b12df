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
// the next truncated ones to a prefix of the canonical sequence, then
// behaves. flakySource and flakyDeltaSource wrap it per source kind.
type flaky[T any] struct {
	meta      *data.Source
	seq       []T
	transient int
	truncated int
}

func (f *flaky[T]) Meta() *data.Source { return f.meta }

func (f *flaky[T]) fetch(ctx context.Context) ([]T, error) {
	if f.transient > 0 {
		f.transient--
		return nil, ErrTransient
	}
	if f.truncated > 0 {
		f.truncated--
		return f.seq[:len(f.seq)/2], nil
	}
	return f.seq, ctx.Err()
}

type flakySource struct{ *flaky[*data.Record] }

func (f flakySource) Fetch(ctx context.Context) ([]*data.Record, error) { return f.fetch(ctx) }

type flakyDeltaSource struct{ *flaky[Delta] }

func (f flakyDeltaSource) FetchDeltas(ctx context.Context) ([]Delta, error) { return f.fetch(ctx) }

// fleetKind presents one streamer instantiation to the shared table:
// the canonical sequences of a test fleet, how to serve one (optionally
// through faults), how to watch and stream it, and how to read what
// arrives.
type fleetKind[S interface{ Meta() *data.Source }, T, E any] struct {
	seqs   func(d *data.Dataset) map[string][]T // source ID → canonical sequence
	static func(meta *data.Source, seq []T) S   // the in-memory adapter (total derivable)
	flaky  func(f *flaky[T]) S
	watch  func(src S, total, epochSize, retries int) *watch[T]
	start  func(ctx context.Context, fleet []S, cfg StreamConfig) (*streamer[E], error)
	open   func(ep E) (seq int, items []T, cursors map[string]int)
	print  func(items []T) string
}

func TestFleetStreamers(t *testing.T) {
	t.Run("records", func(t *testing.T) {
		testFleetKind(t, fleetKind[Source, *data.Record, Epoch]{
			seqs: func(d *data.Dataset) map[string][]*data.Record {
				out := map[string][]*data.Record{}
				for _, s := range d.Sources() {
					out[s.ID] = d.SourceRecords(s.ID)
				}
				return out
			},
			static: func(meta *data.Source, seq []*data.Record) Source { return &Static{Src: meta, Recs: seq} },
			flaky:  func(f *flaky[*data.Record]) Source { return flakySource{f} },
			watch:  NewWatch,
			start:  NewStreamer,
			open:   func(ep Epoch) (int, []*data.Record, map[string]int) { return ep.Seq, ep.Records, ep.Cursors },
			print:  func(recs []*data.Record) string { return deltaFingerprint(UpsertLog(recs)) },
		})
	})
	t.Run("deltas", func(t *testing.T) {
		testFleetKind(t, fleetKind[DeltaSource, Delta, DeltaEpoch]{
			seqs: func(d *data.Dataset) map[string][]Delta {
				out := map[string][]Delta{}
				for i, s := range d.Sources() {
					out[s.ID], _ = Churn(d.SourceRecords(s.ID), ChurnConfig{Seed: int64(i), UpdateRate: 0.2, DeleteRate: 0.1})
				}
				return out
			},
			static: func(meta *data.Source, seq []Delta) DeltaSource { return &DeltaStatic{Src: meta, Log: seq} },
			flaky:  func(f *flaky[Delta]) DeltaSource { return flakyDeltaSource{f} },
			watch:  NewDeltaWatch,
			start:  NewDeltaStreamer,
			open:   func(ep DeltaEpoch) (int, []Delta, map[string]int) { return ep.Seq, ep.Deltas, ep.Cursors },
			print:  deltaFingerprint,
		})
	})
}

// testFleetKind is the shared table: every case runs against both the
// record and the delta instantiation of the one watch and the one fleet
// producer.
func testFleetKind[S interface{ Meta() *data.Source }, T, E any](t *testing.T, k fleetKind[S, T, E]) {
	d := streamWeb(1)
	seqs := k.seqs(d)
	var fleet []S
	for _, meta := range d.Sources() {
		fleet = append(fleet, k.static(meta, seqs[meta.ID]))
	}
	meta := d.Sources()[0]
	seq := seqs[meta.ID]
	total := len(seq)
	ctx := context.Background()

	// drain collects a whole stream, failing on a stream error.
	drain := func(t *testing.T, fleet []S, cfg StreamConfig) []E {
		t.Helper()
		str, err := k.start(ctx, fleet, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer str.Close()
		var eps []E
		for ep := range str.C {
			eps = append(eps, ep)
		}
		if err := str.Err(); err != nil {
			t.Fatal(err)
		}
		return eps
	}

	t.Run("watch delivers the canonical sequence", func(t *testing.T) {
		w := k.watch(fleet[0], total, 7, 0)
		var got []T
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
		if k.print(got) != k.print(seq) {
			t.Fatal("delivered sequence differs from the canonical one")
		}
		if batch, err := w.Poll(ctx); batch != nil || err != nil {
			t.Fatalf("drained watch: %v %v", batch, err)
		}
	})

	t.Run("watch refetches through faults", func(t *testing.T) {
		// The epoch covers the whole source, so truncated payloads can
		// never cover the window and must be refetched.
		w := k.watch(k.flaky(&flaky[T]{meta: meta, seq: seq, transient: 2, truncated: 2}), total, total, 8)
		batch, err := w.Poll(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if k.print(batch) != k.print(seq) {
			t.Fatal("faulted delivery diverged from the canonical sequence")
		}
		// With the retry budget below the fault count the poll must
		// fail, classifiably.
		w = k.watch(k.flaky(&flaky[T]{meta: meta, seq: seq, transient: 5}), total, total, 3)
		if _, err := w.Poll(ctx); !errors.Is(err, ErrTransient) {
			t.Fatalf("err = %v, want ErrTransient", err)
		}
	})

	t.Run("short source", func(t *testing.T) {
		w := k.watch(k.flaky(&flaky[T]{meta: meta, seq: seq, truncated: 50}), total, total, 3)
		if _, err := w.Poll(ctx); !errors.Is(err, ErrShortSource) {
			t.Fatalf("err = %v, want ErrShortSource", err)
		}
		// The same through the producer: a source holding fewer items
		// than its declared total ends the stream with the error.
		str, err := k.start(ctx, fleet, StreamConfig{Retries: -1, Totals: map[string]int{meta.ID: total + 1}})
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
		w := k.watch(fleet[0], total, 5, 0)
		if _, err := w.Poll(ctx); err != nil {
			t.Fatal(err)
		}
		cursor := w.Cursor()
		// A fresh watch seeked to the persisted cursor continues the
		// exact sequence.
		w2 := k.watch(fleet[0], total, 5, 0)
		w2.Seek(cursor)
		batch, err := w2.Poll(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if k.print(batch) != k.print(seq[cursor:cursor+len(batch)]) || len(batch) == 0 {
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
		delivered := map[string][]T{}
		var last map[string]int
		for i := range a {
			seqA, itemsA, cursors := k.open(a[i])
			_, itemsB, _ := k.open(b[i])
			if seqA != i {
				t.Errorf("epoch %d has seq %d", i, seqA)
			}
			if k.print(itemsA) != k.print(itemsB) {
				t.Fatalf("epoch %d differs across runs", i)
			}
			// Sources arrive in ascending ID order, each contributing
			// the window its cursor advanced over.
			for _, m := range d.Sources() {
				n := cursors[m.ID] - len(delivered[m.ID])
				delivered[m.ID] = append(delivered[m.ID], itemsA[:n]...)
				itemsA = itemsA[n:]
			}
			last = cursors
		}
		for id, want := range seqs {
			if k.print(delivered[id]) != k.print(want) || last[id] != len(want) {
				t.Errorf("source %s: delivered sequence or final cursor %d differs from canonical (%d items)", id, last[id], len(want))
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
		_, _, cursors := k.open(all[at-1])
		resumed := drain(t, fleet, StreamConfig{EpochSize: 4, Cursors: cursors, StartSeq: at})
		if len(resumed) != len(all)-at {
			t.Fatalf("resumed %d epochs, want %d", len(resumed), len(all)-at)
		}
		for i, ep := range resumed {
			gotSeq, got, _ := k.open(ep)
			wantSeq, want, _ := k.open(all[at+i])
			if gotSeq != wantSeq || k.print(got) != k.print(want) {
				t.Fatalf("resumed epoch %d differs from the uninterrupted run", i)
			}
		}
	})

	t.Run("cancel mid-send", func(t *testing.T) {
		cctx, cancel := context.WithCancel(ctx)
		str, err := k.start(cctx, fleet, StreamConfig{EpochSize: 1})
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
		dup := append(append([]S(nil), fleet...), fleet[0])
		if _, err := k.start(ctx, dup, StreamConfig{}); err == nil || !strings.Contains(err.Error(), "duplicate") {
			t.Fatalf("err = %v, want a duplicate-ID rejection", err)
		}
	})

	t.Run("unknown totals", func(t *testing.T) {
		wrapped := []S{k.flaky(&flaky[T]{meta: meta, seq: seq})} // not the static adapter: totals required
		if _, err := k.start(ctx, wrapped, StreamConfig{}); err == nil || !strings.Contains(err.Error(), "total") {
			t.Fatalf("err = %v, want a missing-total rejection", err)
		}
		if got := drain(t, wrapped, StreamConfig{Totals: map[string]int{meta.ID: total}}); len(got) == 0 {
			t.Fatal("declared total delivered no epochs")
		}
	})
}
