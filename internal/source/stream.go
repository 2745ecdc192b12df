package source

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/data"
)

// ErrShortSource reports a Watch poll that exhausted its refetch budget
// without ever seeing a payload covering the target cursor range —
// either the source keeps truncating or it genuinely holds fewer
// records than the declared total.
var ErrShortSource = errors.New("source: fetches never covered the watch cursor range")

// Epoch is one batch of newly arrived records across the watched fleet
// — the unit of work a stream processor applies atomically.
type Epoch struct {
	// Seq numbers epochs from StreamConfig.StartSeq upward.
	Seq int
	// Records holds this epoch's arrivals in delivery order: sources in
	// ascending ID order, each source's records in its canonical
	// sequence order.
	Records []*data.Record
	// Cursors snapshots, per source ID, how many of that source's
	// records have been delivered once this epoch is applied — the
	// resume point a stream processor persists alongside its state.
	Cursors map[string]int
}

// watch turns one source's fetch function into a deterministic stream
// cursor over its canonical sequence — records for Watch, change-log
// entries for DeltaWatch. Each Poll delivers the next (at most)
// epochSize items. Delivery is schedule-independent even under fault
// injection — a poll refetches (up to retries times) until the payload
// covers the target window, so transient errors and truncated fetches
// delay items but never change their content or order. That property
// is what makes crash/resume replay byte-identical.
//
// total declares the length of the canonical sequence. It must come
// from the caller (for a fault-wrapped source a truncated fetch is
// indistinguishable from a genuinely short one); Totals derives it
// from the backing dataset.
type watch[T any] struct {
	meta    *data.Source
	fetch   func(context.Context) ([]T, error)
	total   int
	epoch   int
	retries int
	cursor  int
}

func newWatch[T any](meta *data.Source, fetch func(context.Context) ([]T, error), total, epochSize, retries int) *watch[T] {
	if epochSize <= 0 {
		epochSize = 100
	}
	if retries == 0 {
		retries = 8
	}
	if retries < 0 {
		retries = 0
	}
	if total < 0 {
		total = 0
	}
	return &watch[T]{meta: meta, fetch: fetch, total: total, epoch: epochSize, retries: retries}
}

// Meta returns the watched source's metadata.
func (w *watch[T]) Meta() *data.Source { return w.meta }

// Cursor reports how many items have been delivered so far.
func (w *watch[T]) Cursor() int { return w.cursor }

// Seek positions the cursor (clamped to [0, total]) — the restore half
// of snapshot/resume: a restored stream seeks each watch to its
// persisted cursor and replay continues from there.
func (w *watch[T]) Seek(cursor int) {
	w.cursor = min(max(cursor, 0), w.total)
}

// Done reports whether the whole canonical sequence has been delivered.
func (w *watch[T]) Done() bool { return w.cursor >= w.total }

// Poll delivers the next batch: items [cursor, min(cursor+epoch,
// total)) of the canonical sequence. A drained watch returns (nil,
// nil). Permanent failures and context cancellation abort immediately;
// transient failures and short (truncated) payloads are refetched up
// to the retry budget, then reported wrapping both the last error and
// ErrShortSource/ErrTransient so callers can classify.
func (w *watch[T]) Poll(ctx context.Context) ([]T, error) {
	if w.Done() {
		return nil, nil
	}
	target := min(w.cursor+w.epoch, w.total)
	batch, err := pollWindow(ctx, w.meta.ID, w.fetch, w.cursor, target, w.retries)
	if err != nil {
		return nil, err
	}
	w.cursor = target
	return batch, nil
}

// pollWindow is the refetch-until-covered core of watch.Poll: it
// refetches the canonical sequence (up to retries extra attempts) until
// a payload covers [0, target), then returns the window [cursor,
// target). Transient errors and short payloads consume the budget;
// permanent errors and cancellation abort immediately. Because a
// delivered window always comes from a payload that covered it, content
// and order depend only on the canonical sequence — never on the fault
// schedule.
func pollWindow[T any](ctx context.Context, id string,
	fetch func(context.Context) ([]T, error), cursor, target, retries int) ([]T, error) {
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		items, err := fetch(ctx)
		if err != nil {
			if errors.Is(err, ErrPermanent) || ctx.Err() != nil {
				return nil, err
			}
			lastErr = err
			continue
		}
		if len(items) < target {
			lastErr = fmt.Errorf("source: %s delivered %d items, need %d: %w",
				id, len(items), target, ErrShortSource)
			continue
		}
		return items[cursor:target], nil
	}
	return nil, fmt.Errorf("source: watch poll on %s exhausted %d attempts: %w",
		id, retries+1, lastErr)
}

// Watch is the watch over a record Source.
type Watch = watch[*data.Record]

// NewWatch builds a watch over src delivering epochSize records per
// poll (default 100) with the given refetch budget per poll (default 8
// retries after the first attempt; negative means none).
func NewWatch(src Source, total, epochSize, retries int) *Watch {
	return newWatch(src.Meta(), src.Fetch, total, epochSize, retries)
}

// StreamConfig tunes a Streamer. The zero value is usable.
type StreamConfig struct {
	// EpochSize is the records delivered per source per epoch.
	// Default 100.
	EpochSize int
	// Retries is the refetch budget per poll (on top of the first
	// attempt); transient faults and truncations consume it. Default 8;
	// negative means none.
	Retries int
	// Totals declares each source's canonical record count by ID.
	// Sources without an entry fall back to the length of their static
	// record slice when the source is a *Static; otherwise the streamer
	// refuses to watch them.
	Totals map[string]int
	// Cursors positions each watch at construction (resume points from
	// a persisted stream state). Absent IDs start at 0.
	Cursors map[string]int
	// StartSeq numbers the first emitted epoch (a resumed stream
	// continues its epoch numbering). Default 0.
	StartSeq int
}

// epochBuffer bounds the epoch channel between the producer and the
// consumer: a few epochs of read-ahead, then backpressure — never
// unbounded queueing.
const epochBuffer = 4

// streamer drives a fleet of watches concurrently with the consumer:
// one producer goroutine polls every live watch once per epoch, bundles
// the arrivals into an epoch of type E and sends it on the bounded
// channel C. The channel closes when every source is drained or on the
// first error (see Err).
type streamer[E any] struct {
	// C delivers epochs in sequence order.
	C <-chan E

	cancel context.CancelFunc
	done   chan struct{}

	mu  sync.Mutex
	err error
}

// startFleet starts the producer over a fleet. Sources are watched in
// ascending ID order (duplicate IDs are rejected). feed yields a
// source's fetch function and, for the in-memory adapters, the length
// of its canonical sequence — the fallback when cfg.Totals has no entry
// (-1: none, the fleet is refused). epoch bundles one round of arrivals
// with the per-source cursors after it. The producer stops on context
// cancellation, on the first poll error, or when every source is
// drained.
func startFleet[S interface{ Meta() *data.Source }, T, E any](ctx context.Context, sources []S, cfg StreamConfig,
	feed func(S) (fetch func(context.Context) ([]T, error), staticLen int),
	epoch func(seq int, items []T, cursors map[string]int) E) (*streamer[E], error) {
	sorted, err := sortSources(sources)
	if err != nil {
		return nil, err
	}
	watches := make([]*watch[T], 0, len(sorted))
	for _, s := range sorted {
		id := s.Meta().ID
		fetch, staticLen := feed(s)
		total, ok := cfg.Totals[id]
		if !ok {
			if staticLen < 0 {
				return nil, fmt.Errorf("source: no declared total for watched source %q", id)
			}
			total = staticLen
		}
		w := newWatch(s.Meta(), fetch, total, cfg.EpochSize, cfg.Retries)
		if c, ok := cfg.Cursors[id]; ok {
			w.Seek(c)
		}
		watches = append(watches, w)
	}

	ctx, cancel := context.WithCancel(ctx)
	ch := make(chan E, epochBuffer)
	str := &streamer[E]{C: ch, cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(str.done)
		defer close(ch)
		for seq := cfg.StartSeq; ; seq++ {
			var items []T
			cursors := make(map[string]int, len(watches))
			for _, w := range watches {
				batch, err := w.Poll(ctx)
				if err != nil {
					str.setErr(err)
					return
				}
				items = append(items, batch...)
				cursors[w.meta.ID] = w.cursor
			}
			if len(items) == 0 {
				return // every source drained
			}
			select {
			case ch <- epoch(seq, items, cursors):
			case <-ctx.Done():
				str.setErr(ctx.Err())
				return
			}
		}
	}()
	return str, nil
}

func (s *streamer[E]) setErr(err error) {
	s.mu.Lock()
	s.err = err
	s.mu.Unlock()
}

// Err reports why the stream stopped: nil after a clean drain. Valid
// once C is closed.
func (s *streamer[E]) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close stops the producer and waits for it to exit. The channel is
// closed; a consumer ranging over C terminates.
func (s *streamer[E]) Close() {
	s.cancel()
	<-s.done
}

// Totals maps each source of a dataset to its record count — the
// canonical-sequence lengths a Streamer needs when the fleet is
// wrapped (fault injection) and payload lengths can't be trusted.
func Totals(d *data.Dataset) map[string]int {
	out := make(map[string]int, d.NumSources())
	for _, s := range d.Sources() {
		out[s.ID] = len(d.SourceRecords(s.ID))
	}
	return out
}

// Streamer is the fleet streamer over record sources, delivering Epochs.
type Streamer = streamer[Epoch]

// NewStreamer starts streaming a record fleet (see startFleet). Sources
// without a cfg.Totals entry fall back to len(Recs) when they are a
// *Static.
func NewStreamer(ctx context.Context, sources []Source, cfg StreamConfig) (*Streamer, error) {
	return startFleet(ctx, sources, cfg,
		func(s Source) (func(context.Context) ([]*data.Record, error), int) {
			if st, ok := s.(*Static); ok {
				return s.Fetch, len(st.Recs)
			}
			return s.Fetch, -1
		},
		func(seq int, recs []*data.Record, cursors map[string]int) Epoch {
			return Epoch{Seq: seq, Records: recs, Cursors: cursors}
		})
}
