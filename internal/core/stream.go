package core

import (
	"context"
	"fmt"
	"maps"
	"sort"
	"time"

	"repro/internal/data"
	"repro/internal/fusion"
	"repro/internal/linkage"
	"repro/internal/obs"
	"repro/internal/source"
	"repro/internal/tokenize"
)

// StreamConfig controls a streaming integration run — the Velocity
// path: arriving records flow through online blocking-key maintenance
// and incremental linkage into online fusion, and the updated fused
// entities are republished into the serving snapshot without ever
// re-running the batch pipeline. The zero value is usable.
type StreamConfig struct {
	// EpochSize is the log entries per source per epoch; default 100.
	// Each poll refetches through transient faults, fetch panics and
	// truncations up to 8 times (the watch's fixed budget).
	EpochSize int

	// Incremental linkage: the batch pipeline's default rule (pid
	// equality short-circuits, otherwise a weighted Jaccard over the
	// title against MatchThreshold).
	MatchThreshold float64 // 0 = default 0.6, ZeroThreshold = literally 0
	MaxBlock       int     // online stop-token bound; 0 = default 64, negative = unlimited

	// FusionN is fusion.Online's assumed number of false values
	// (0 = its default 10).
	FusionN float64

	// CompactRatio enables automatic state compaction: when the
	// incremental linker's garbage ratio (posting slots owned by
	// tombstoned IDs) reaches this threshold after an epoch, the
	// posting lists are rewritten dropping dead entries before the next
	// save. 0 disables automatic compaction (Compact can still be
	// called explicitly); compaction never changes match behaviour,
	// only the size of the in-memory index and the state file.
	CompactRatio float64

	// Publishing cadence. PublishEvery > 0 republishes every that many
	// epochs — deterministic, the cadence replay tests use. Otherwise
	// the staleness window drives it: the view is republished once it
	// has been dirty for Staleness (default 2s).
	Staleness    time.Duration
	PublishEvery int

	// Persistence. StatePath enables snapshot/restore: the stream state
	// (cursors, dictionaries, posting lists, union-find partition,
	// fusion accuracy state) is written there atomically every
	// SaveEvery epochs (default 1) and on drain.
	StatePath string
	SaveEvery int

	// Workers bounds the fusion worker pool (0 = NumCPU); output is
	// identical for any value.
	Workers int
	// Obs records stream counters, gauges and timers (nil falls back to
	// obs.Default()).
	Obs *obs.Registry
}

func (c *StreamConfig) defaults() {
	if c.EpochSize <= 0 {
		c.EpochSize = 100
	}
	c.MatchThreshold = resolveThreshold(c.MatchThreshold)
	if c.MaxBlock == 0 {
		c.MaxBlock = 64
	}
	if c.Staleness <= 0 {
		c.Staleness = 2 * time.Second
	}
	if c.SaveEvery <= 0 {
		c.SaveEvery = 1
	}
}

// Validate rejects unusable configurations.
func (c StreamConfig) Validate() error {
	if err := checkThreshold("stream match", c.MatchThreshold); err != nil {
		return err
	}
	if c.FusionN < 0 {
		return fmt.Errorf("core: stream fusion N %v is negative", c.FusionN)
	}
	if c.PublishEvery < 0 {
		return fmt.Errorf("core: stream publish-every %d is negative", c.PublishEvery)
	}
	if c.CompactRatio < 0 || c.CompactRatio > 1 {
		return fmt.Errorf("core: stream compact ratio %v outside [0,1]", c.CompactRatio)
	}
	if c.Workers < 0 {
		return fmt.Errorf("core: stream workers %d is negative", c.Workers)
	}
	return nil
}

// Stream is the long-lived streaming integration processor. It is not
// safe for concurrent use; one goroutine owns it (RunDeltas is that
// loop). All state that decides future behaviour — cursors, the
// incremental linker, the fusion accuracy estimates, the epoch counter
// — is persisted by Save and restored by LoadStream, so a resumed
// stream replays byte-identically (under an epoch-driven publish
// cadence; wall-clock staleness publishing is inherently
// schedule-dependent).
type Stream struct {
	cfg     StreamConfig
	matcher linkage.Matcher
	inc     *linkage.Incremental
	publish func(*Snapshot)

	// acc holds the online accuracy estimates fed back into the probe
	// order: after each publish, every source's estimate becomes its
	// Laplace-smoothed agreement rate with the fused values.
	acc     map[string]float64
	cursors map[string]int

	// The publish cache (view.go), all derived and never persisted: one
	// view per cluster in partition order, the source table their claim
	// fragments refer to (items.Sources with its index srcIDs), and
	// buffers a publish reuses — the fragments laid end to end, the
	// kernel's verdicts on them, and newEntityDoc's word set.
	views  []*clusterView
	srcIDs map[string]int32
	items  data.ItemView
	fused  []fusion.Fused
	seen   map[string]struct{}

	epoch       int // completed epochs (also the next epoch's sequence)
	ingested    int64
	deleted     int64
	compactions int64
	publishes   int64
	lastPub     time.Time
	dirty       bool
}

// NewStream builds a fresh stream processor. publish, when non-nil, is
// called with every republished snapshot (serve.Server.Publish is the
// intended target); it runs on the stream's goroutine.
func NewStream(cfg StreamConfig, publish func(*Snapshot)) (*Stream, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.defaults()
	s := &Stream{
		cfg:     cfg,
		matcher: defaultRule([]string{titleAttr}, cfg.MatchThreshold),
		publish: publish,
		acc:     map[string]float64{},
		cursors: map[string]int{},
		srcIDs:  map[string]int32{},
		seen:    map[string]struct{}{},
		lastPub: time.Now(),
	}
	s.inc = linkage.NewIncremental(streamKey, s.matcher)
	s.inc.MaxBlock = cfg.MaxBlock
	return s, nil
}

// streamKey is the online blocking key: the sorted distinct title
// tokens (the posting-list probe order must not inherit map iteration
// order) plus, when present, one exact identifier key, NUL-prefixed so
// it can't collide with a word token.
func streamKey(r *data.Record) []string {
	words := tokenize.WordSet(r.Get(titleAttr).String())
	keys := make([]string, 0, len(words)+1)
	for w := range words {
		keys = append(keys, w)
	}
	sort.Strings(keys)
	if v := r.Get(idAttr); !v.IsNull() {
		keys = append(keys, "\x00"+idAttr+"\x00"+v.Key())
	}
	return keys
}

func (s *Stream) reg() *obs.Registry { return obs.OrDefault(s.cfg.Obs) }

// ApplyEpoch is ApplyDeltas under its record-stream name, kept only for
// benchmark/serve_live.go until that file calls ApplyDeltas.
func (s *Stream) ApplyEpoch(metas map[string]*data.Source, ep source.Epoch) error {
	return s.ApplyDeltas(metas, ep)
}

// ApplyDeltas folds one epoch of changes into the incremental state:
// upserts (re)insert into the online linker — a live record with the
// same ID is retracted first — and deletes tombstone the record,
// recluster its component and drop it from the dataset, so the next
// publish rebuilds claims from live records only and online fusion
// never credits a ghost. Duplicate deletes and deletes of unknown IDs
// are no-ops (a dirty upstream must not corrupt state). Cursors
// advance to the epoch's resume points and the view becomes dirty.
func (s *Stream) ApplyDeltas(metas map[string]*data.Source, ep source.DeltaEpoch) error {
	reg := s.reg()
	t0 := time.Now()
	applied := false
	for _, dl := range ep.Deltas {
		switch dl.Op {
		case source.OpUpsert:
			r := dl.Record
			if r == nil {
				return fmt.Errorf("core: stream epoch %d: upsert of %s carries no record", ep.Seq, dl.ID)
			}
			meta := metas[r.SourceID]
			if meta == nil {
				return fmt.Errorf("core: stream record %s from unknown source %q", r.ID, r.SourceID)
			}
			_, updated, err := s.inc.Upsert(meta, r)
			if err != nil {
				return fmt.Errorf("core: stream apply epoch %d: %w", ep.Seq, err)
			}
			if updated {
				reg.Counter("stream.updates").Inc()
			} else {
				s.ingested++
				reg.Counter("stream.records_ingested").Inc()
			}
			applied = true
		case source.OpDelete:
			if s.inc.Delete(dl.ID) {
				s.deleted++
				reg.Counter("stream.deletes").Inc()
				applied = true
			}
		default:
			return fmt.Errorf("core: stream epoch %d: unknown delta op %v", ep.Seq, dl.Op)
		}
	}
	for id, c := range ep.Cursors {
		s.cursors[id] = c
	}
	s.epoch = ep.Seq + 1
	if applied {
		s.dirty = true
	}
	reg.Counter("stream.epochs").Inc()
	reg.Timer("stream.apply_time").Observe(time.Since(t0))
	reg.Gauge("stream.staleness_seconds").Set(s.StalenessNow().Seconds())
	reg.Gauge("stream.tombstones_live").Set(float64(s.inc.Tombstones()))
	return nil
}

// Compact rewrites the linker's posting lists dropping tombstoned
// slots. Match behaviour is unchanged (probes already skip the dead);
// only the in-memory index and the next saved state shrink. It reports
// the reclaimed posting slots, emptied keys and cleared tombstones.
func (s *Stream) Compact() (slots, keys, tombstones int) {
	reg := s.reg()
	t0 := time.Now()
	slots, keys, tombstones = s.inc.Compact()
	if tombstones > 0 {
		s.compactions++
		reg.Counter("stream.compactions").Inc()
		reg.Counter("stream.compacted_slots").Add(int64(slots))
	}
	reg.Timer("stream.compact_time").Observe(time.Since(t0))
	reg.Gauge("stream.tombstones_live").Set(float64(s.inc.Tombstones()))
	return slots, keys, tombstones
}

// maybeCompact runs Compact when the configured garbage-ratio trigger
// fires.
func (s *Stream) maybeCompact() {
	if s.cfg.CompactRatio > 0 && s.inc.GarbageRatio() >= s.cfg.CompactRatio {
		s.Compact()
	}
}

// StalenessNow reports how long the published view has been behind the
// ingested state: zero when clean, time since the last publish while
// dirty.
func (s *Stream) StalenessNow() time.Duration {
	if !s.dirty {
		return 0
	}
	return time.Since(s.lastPub)
}

// shouldPublish decides the republish cadence: epoch-driven when
// PublishEvery is set, staleness-window-driven otherwise.
func (s *Stream) shouldPublish() bool {
	if !s.dirty {
		return false
	}
	if s.cfg.PublishEvery > 0 {
		return s.epoch%s.cfg.PublishEvery == 0
	}
	return time.Since(s.lastPub) >= s.cfg.Staleness
}

// Rebuild builds the current serving snapshot without publishing it —
// the read used to seed a server after a restore. It may warm the
// derived publish cache (the cluster views) but touches no persisted
// state: accuracy estimates, counters and cursors are as before.
func (s *Stream) Rebuild(ctx context.Context) (*Snapshot, error) {
	snap, _, err := s.buildView(ctx, false)
	return snap, err
}

// Publish rebuilds the view, feeds the fusion outcome back into the
// accuracy estimates and pushes the snapshot to the publish sink. It
// returns the published snapshot.
func (s *Stream) Publish(ctx context.Context) (*Snapshot, error) {
	reg := s.reg()
	t0 := time.Now()
	snap, st, err := s.buildView(ctx, true)
	if err != nil {
		return nil, err
	}
	if s.publish != nil {
		s.publish(snap)
	}
	s.publishes++
	s.dirty = false
	s.lastPub = time.Now()
	st.report(reg)
	reg.Counter("stream.publishes").Inc()
	reg.Timer("stream.republish_time").Observe(time.Since(t0))
	reg.Gauge("stream.staleness_seconds").Set(0)
	reg.Gauge("stream.entities").Set(float64(snap.Len()))
	return snap, nil
}

// RunDeltas drains a fleet as a stream: delta watch → epoch batches →
// upsert/delete application → online fusion → snapshot publishing
// within the staleness window, compacting on the garbage trigger and
// persisting state every SaveEvery epochs when StatePath is set. A
// dataset's records enter as source.FromDataset's upsert logs. totals
// declares each source's canonical log length (mandatory for wrapped
// sources; see source.StreamConfig.Totals). It returns after every source is
// drained (with a final publish and save) or on the first error.
func (s *Stream) RunDeltas(ctx context.Context, fleet []source.DeltaSource, totals map[string]int) error {
	str, err := source.NewDeltaStreamer(ctx, fleet, source.StreamConfig{
		EpochSize: s.cfg.EpochSize,
		Totals:    totals,
		Cursors:   s.Cursors(),
		StartSeq:  s.epoch,
	})
	if err != nil {
		return err
	}
	defer str.Close()
	metas := fleetMetas(fleet)
	for ep := range str.C {
		if err := s.ApplyDeltas(metas, ep); err != nil {
			return err
		}
		if err := s.afterEpoch(ctx); err != nil {
			return err
		}
	}
	if err := str.Err(); err != nil {
		return err
	}
	return s.finish(ctx)
}

func fleetMetas(fleet []source.DeltaSource) map[string]*data.Source {
	metas := make(map[string]*data.Source, len(fleet))
	for _, src := range fleet {
		metas[src.Meta().ID] = src.Meta()
	}
	return metas
}

// afterEpoch runs the per-epoch tail: publish cadence, garbage trigger,
// save cadence.
func (s *Stream) afterEpoch(ctx context.Context) error {
	if s.shouldPublish() {
		if _, err := s.Publish(ctx); err != nil {
			return err
		}
	}
	s.maybeCompact()
	if s.cfg.StatePath != "" && s.epoch%s.cfg.SaveEvery == 0 {
		if err := s.Save(s.cfg.StatePath); err != nil {
			return err
		}
	}
	return nil
}

// finish publishes any dirty tail and persists the final state.
func (s *Stream) finish(ctx context.Context) error {
	if s.dirty {
		if _, err := s.Publish(ctx); err != nil {
			return err
		}
	}
	s.maybeCompact()
	if s.cfg.StatePath != "" {
		return s.Save(s.cfg.StatePath)
	}
	return nil
}

// Epoch reports how many epochs have been applied.
func (s *Stream) Epoch() int { return s.epoch }

// Ingested reports how many distinct record insertions have been
// applied (updates of a live record are counted once, at first
// insert).
func (s *Stream) Ingested() int64 { return s.ingested }

// Deleted reports how many record deletions have been applied
// (no-op deletes excluded).
func (s *Stream) Deleted() int64 { return s.deleted }

// Compactions reports how many compaction passes actually reclaimed
// tombstones.
func (s *Stream) Compactions() int64 { return s.compactions }

// Tombstones reports how many deleted IDs still occupy posting slots.
func (s *Stream) Tombstones() int { return s.inc.Tombstones() }

// GarbageRatio reports the fraction of posting slots owned by
// tombstoned IDs.
func (s *Stream) GarbageRatio() float64 { return s.inc.GarbageRatio() }

// Publishes reports how many snapshots have been published.
func (s *Stream) Publishes() int64 { return s.publishes }

// Comparisons reports the cumulative pairwise match calls — the
// stream-side cost metric E27 compares against batch relinking.
func (s *Stream) Comparisons() int { return s.inc.Comparisons() }

// Clusters returns the current clustering.
func (s *Stream) Clusters() data.Clustering { return s.inc.Clusters() }

// Dataset exposes the accumulated records (read-only use).
func (s *Stream) Dataset() *data.Dataset { return s.inc.Dataset() }

// Cursors returns a copy of the per-source resume positions.
func (s *Stream) Cursors() map[string]int { return maps.Clone(s.cursors) }

// Accuracy returns a copy of the current per-source accuracy estimates.
func (s *Stream) Accuracy() map[string]float64 { return maps.Clone(s.acc) }
