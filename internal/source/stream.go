package source

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/data"
)

// ErrShortSource reports a watch poll that exhausted its refetch budget
// without ever seeing a payload covering the target cursor range —
// either the source keeps truncating or it genuinely holds fewer
// entries than the declared total.
var ErrShortSource = errors.New("source: fetches never covered the watch cursor range")

// watch turns one source's change log into a deterministic stream
// cursor over its canonical sequence. Each Poll delivers the next (at
// most) epochSize deltas. Delivery is schedule-independent even under
// fault injection — a poll refetches (up to pollRetries times) until
// the payload covers the target window, so transient errors, panics and
// truncated fetches delay deltas but never change their content or
// order. That property is what makes crash/resume replay
// byte-identical.
//
// total declares the length of the canonical log. It must come from
// the caller (for a fault-wrapped source a truncated fetch is
// indistinguishable from a genuinely short one); Totals derives it from
// the backing dataset.
type watch struct {
	src    DeltaSource
	total  int
	epoch  int
	cursor int
}

// pollRetries is the refetch budget of one poll, on top of its first
// attempt; transient faults, panics and truncations consume it.
const pollRetries = 8

func newWatch(src DeltaSource, total, epochSize int) *watch {
	if epochSize <= 0 {
		epochSize = 100
	}
	if total < 0 {
		total = 0
	}
	return &watch{src: src, total: total, epoch: epochSize}
}

// Cursor reports how many deltas have been delivered so far.
func (w *watch) Cursor() int { return w.cursor }

// Seek positions the cursor (clamped to [0, total]) — the restore half
// of snapshot/resume: a restored stream seeks each watch to its
// persisted cursor and replay continues from there.
func (w *watch) Seek(cursor int) {
	w.cursor = min(max(cursor, 0), w.total)
}

// Done reports whether the whole canonical log has been delivered.
func (w *watch) Done() bool { return w.cursor >= w.total }

// Poll delivers the next batch: deltas [cursor, min(cursor+epoch,
// total)) of the canonical log. A drained watch returns (nil, nil).
// It refetches the log (up to pollRetries extra attempts) until a
// payload covers the window: transient failures, fetch panics
// (recovered by fetchSafe) and short (truncated) payloads consume the
// budget and are then reported wrapping both the last error and
// ErrShortSource/ErrTransient so callers can classify; permanent
// failures and context cancellation abort immediately. Because a
// delivered window always comes from a payload that covered it, content
// and order depend only on the canonical log — never on the fault
// schedule.
func (w *watch) Poll(ctx context.Context) ([]Delta, error) {
	if w.Done() {
		return nil, nil
	}
	id := w.src.Meta().ID
	target := min(w.cursor+w.epoch, w.total)
	var lastErr error
	for attempt := 0; attempt <= pollRetries; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		log, err := fetchSafe(ctx, w.src)
		if err != nil {
			if errors.Is(err, ErrPermanent) || ctx.Err() != nil {
				return nil, err
			}
			lastErr = err
			continue
		}
		if len(log) < target {
			lastErr = fmt.Errorf("source: %s delivered %d items, need %d: %w",
				id, len(log), target, ErrShortSource)
			continue
		}
		batch := log[w.cursor:target]
		w.cursor = target
		return batch, nil
	}
	return nil, fmt.Errorf("source: watch poll on %s exhausted %d attempts: %w",
		id, pollRetries+1, lastErr)
}

// StreamConfig tunes a DeltaStreamer. The zero value is usable.
type StreamConfig struct {
	// EpochSize is the deltas delivered per source per epoch.
	// Default 100. A poll refetches up to 8 times through transient
	// faults, fetch panics and truncations.
	EpochSize int
	// Totals declares each source's canonical log length by ID. Sources
	// without an entry fall back to the length of their static log when
	// the source is a *DeltaStatic; otherwise the streamer refuses to
	// watch them.
	Totals map[string]int
	// Cursors positions each watch at construction (resume points from
	// a persisted stream state). Absent IDs start at 0.
	Cursors map[string]int
	// StartSeq numbers the first emitted epoch (a resumed stream
	// continues its epoch numbering). Default 0.
	StartSeq int
}

// DeltaEpoch is one batch of changes across the watched fleet — the
// unit of work a stream processor applies atomically.
type DeltaEpoch struct {
	// Seq numbers epochs from StreamConfig.StartSeq upward.
	Seq int
	// Deltas holds this epoch's changes in delivery order: sources in
	// ascending ID order, each source's deltas in canonical log order.
	Deltas []Delta
	// Cursors snapshots, per source ID, how many of that source's log
	// entries have been delivered once this epoch is applied — the
	// resume point a stream processor persists alongside its state.
	Cursors map[string]int
}

// epochBuffer bounds the epoch channel between the producer and the
// consumer: a few epochs of read-ahead, then backpressure — never
// unbounded queueing.
const epochBuffer = 4

// DeltaStreamer drives a fleet of watches concurrently with the
// consumer: one producer goroutine polls every live watch once per
// epoch, bundles the arrivals into a DeltaEpoch and sends it on the
// bounded channel C. The channel closes when every source is drained or
// on the first error (see Err).
type DeltaStreamer struct {
	// C delivers epochs in sequence order.
	C <-chan DeltaEpoch

	cancel context.CancelFunc
	done   chan struct{}

	mu  sync.Mutex
	err error
}

// NewDeltaStreamer starts the producer over a fleet. Sources are
// watched in ascending ID order (duplicate IDs are rejected); a source
// without a cfg.Totals entry falls back to len(Log) when it is a
// *DeltaStatic and is refused otherwise. The producer stops on context
// cancellation, on the first poll error, or when every source is
// drained.
func NewDeltaStreamer(ctx context.Context, sources []DeltaSource, cfg StreamConfig) (*DeltaStreamer, error) {
	sorted, err := sortSources(sources)
	if err != nil {
		return nil, err
	}
	watches := make([]*watch, 0, len(sorted))
	for _, s := range sorted {
		id := s.Meta().ID
		total, ok := cfg.Totals[id]
		if !ok {
			st, static := s.(*DeltaStatic)
			if !static {
				return nil, fmt.Errorf("source: no declared total for watched source %q", id)
			}
			total = len(st.Log)
		}
		w := newWatch(s, total, cfg.EpochSize)
		if c, ok := cfg.Cursors[id]; ok {
			w.Seek(c)
		}
		watches = append(watches, w)
	}

	ctx, cancel := context.WithCancel(ctx)
	ch := make(chan DeltaEpoch, epochBuffer)
	str := &DeltaStreamer{C: ch, cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(str.done)
		defer close(ch)
		for seq := cfg.StartSeq; ; seq++ {
			var deltas []Delta
			cursors := make(map[string]int, len(watches))
			for _, w := range watches {
				batch, err := w.Poll(ctx)
				if err != nil {
					str.setErr(err)
					return
				}
				deltas = append(deltas, batch...)
				cursors[w.src.Meta().ID] = w.cursor
			}
			if len(deltas) == 0 {
				return // every source drained
			}
			select {
			case ch <- DeltaEpoch{Seq: seq, Deltas: deltas, Cursors: cursors}:
			case <-ctx.Done():
				str.setErr(ctx.Err())
				return
			}
		}
	}()
	return str, nil
}

func (s *DeltaStreamer) setErr(err error) {
	s.mu.Lock()
	s.err = err
	s.mu.Unlock()
}

// Err reports why the stream stopped: nil after a clean drain. Valid
// once C is closed.
func (s *DeltaStreamer) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close stops the producer and waits for it to exit. The channel is
// closed; a consumer ranging over C terminates.
func (s *DeltaStreamer) Close() {
	s.cancel()
	<-s.done
}

// Totals maps each source of a dataset to its record count — the
// canonical-sequence lengths a streamer needs when the fleet is
// wrapped (fault injection) and payload lengths can't be trusted.
// FromDataset's logs hold one upsert per record, so the counts are
// their log lengths.
func Totals(d *data.Dataset) map[string]int {
	out := make(map[string]int, d.NumSources())
	for _, s := range d.Sources() {
		out[s.ID] = len(d.SourceRecords(s.ID))
	}
	return out
}

// Epoch is DeltaEpoch under its record-stream name, kept only for
// benchmark/serve_live.go until that file moves to the delta names.
type Epoch = DeltaEpoch

// Streamer is DeltaStreamer under its record-stream name, kept only for
// benchmark/serve_live.go until that file moves to the delta names.
type Streamer = DeltaStreamer

// NewStreamer is NewDeltaStreamer under its record-stream name, kept
// only for benchmark/serve_live.go until that file calls
// NewDeltaStreamer.
func NewStreamer(ctx context.Context, sources []DeltaSource, cfg StreamConfig) (*Streamer, error) {
	return NewDeltaStreamer(ctx, sources, cfg)
}
