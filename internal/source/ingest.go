package source

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// IngestConfig tunes the resilient ingestor. The zero value is usable.
type IngestConfig struct {
	// Workers bounds the fan-out over sources (0 = NumCPU). The
	// assembled dataset and Report are identical for any value.
	Workers int
	// Retries is the number of re-attempts after the first failed
	// fetch (so a source is tried at most Retries+1 times). Default 4.
	// Negative means no retries.
	Retries int
	// BaseBackoff is the first retry delay; each further retry doubles
	// it up to MaxBackoff, scaled by a deterministic per-(source,
	// attempt) jitter in [0.5, 1). Defaults 10ms and 500ms.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// MinSources is the minimum number of sources that must survive
	// for Ingest to succeed (default 1). Fewer survivors still return
	// the partial dataset and full report, alongside an error wrapping
	// ErrTooFewSources.
	MinSources int
	// Obs records "source." ingestion metrics when set (falling back
	// to the process default registry).
	Obs *obs.Registry
}

func (c *IngestConfig) defaults() {
	if c.Retries == 0 {
		c.Retries = 4
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 10 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 500 * time.Millisecond
	}
	if c.MinSources <= 0 {
		c.MinSources = 1
	}
}

// Outcome is the per-source ingestion result.
type Outcome struct {
	SourceID string
	// State is "ok" (records ingested), "dropped" (all attempts
	// failed) or "skipped" (circuit breaker rejected the source before
	// any attempt).
	State string
	// Attempts is the number of fetches issued this call.
	Attempts int
	// Records left live once this source's log was folded in (0
	// unless ok).
	Records int
	// Err describes the final failure ("" when ok).
	Err string
}

// Report summarises one Ingest call. All slices are sorted by source
// ID, so reports are byte-comparable across runs.
type Report struct {
	Total     int // sources offered
	Succeeded int // sources ingested
	// Dropped lists the sources absent from the dataset (dropped or
	// skipped); Degraded lists sources that succeeded only after
	// retrying.
	Dropped  []string
	Degraded []string
	// Records left live and fetch attempts issued, summed over sources.
	Records  int
	Attempts int
	Outcomes []Outcome
}

// Ingestor fetches a fleet of sources with retries, backoff and
// circuit breaking, and assembles the survivors into a dataset.
// Breaker state persists across calls; an Ingestor must not be used by
// multiple goroutines concurrently.
type Ingestor struct {
	cfg      IngestConfig
	breakers map[string]*breaker

	// Test seams: the clock and the backoff sleeper.
	now   func() time.Time
	sleep func(ctx context.Context, d time.Duration) error
}

// NewIngestor builds an ingestor, resolving config defaults.
func NewIngestor(cfg IngestConfig) *Ingestor {
	cfg.defaults()
	return &Ingestor{
		cfg:      cfg,
		breakers: map[string]*breaker{},
		now:      time.Now,
		sleep:    ctxSleep,
	}
}

// Config returns the resolved configuration.
func (ing *Ingestor) Config() IngestConfig { return ing.cfg }

// ctxSleep waits d or until ctx is done, whichever is first.
func ctxSleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// backoffDelay is the pre-jitter-scaled delay before retry `attempt`
// (1-based over retries): base·2^(attempt−1) capped at max, scaled by
// a deterministic jitter in [0.5, 1) derived from the source ID and
// attempt number — no shared RNG, so schedules are reproducible and
// independent of worker count.
func backoffDelay(id string, attempt int, base, max time.Duration) time.Duration {
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	h := hashID(id) ^ (uint64(attempt) * 0x9e3779b97f4a7c15)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	frac := 0.5 + float64(h%1024)/2048
	return time.Duration(float64(d) * frac)
}

// hashID is the 64-bit FNV-1a hash of s.
func hashID(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// fetchSafe calls FetchDeltas with panic recovery, so one misbehaving
// source adapter is a retryable failure instead of killing the whole
// ingest or stream.
func fetchSafe(ctx context.Context, s DeltaSource) (log []Delta, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("source: fetch panic: %v", r)
		}
	}()
	return s.FetchDeltas(ctx)
}

// Ingest fetches every source's change log (bounded fan-out, sorted-ID
// order) and folds the survivors into a dataset. It degrades gracefully:
// failing sources are retried with capped exponential backoff, then
// dropped, and the Report says exactly which sources were dropped,
// skipped or degraded and how many attempts each one cost. The call
// fails outright only when ctx is cancelled, a source ID is
// duplicated, a record ID is claimed by two sources, or fewer than
// MinSources sources survive (the latter still returns the partial
// dataset and report).
func (ing *Ingestor) Ingest(ctx context.Context, sources []DeltaSource) (*data.Dataset, *Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sorted, err := sortSources(sources)
	if err != nil {
		return nil, nil, err
	}
	// Breakers are created up front on the driver goroutine; during the
	// fan-out each goroutine touches only its own source's breaker.
	for _, s := range sorted {
		id := s.Meta().ID
		if ing.breakers[id] == nil {
			ing.breakers[id] = &breaker{}
		}
	}

	results := make([]fetchResult, len(sorted))
	ferr := parallel.ForEach(parallel.Config{Workers: ing.cfg.Workers, Ctx: ctx}, len(sorted), func(i int) {
		src := sorted[i]
		id := src.Meta().ID
		results[i] = ing.ingestOne(ctx, id, src, ing.breakers[id])
	})
	if ferr != nil {
		return nil, nil, fmt.Errorf("source: ingest: %w", ferr)
	}

	reg := obs.OrDefault(ing.cfg.Obs)
	d := data.NewDataset()
	rep := &Report{Total: len(sorted)}
	for i, s := range sorted {
		r := results[i]
		rep.Attempts += r.out.Attempts
		if r.out.Attempts > 1 {
			reg.Counter("source.retries").Add(int64(r.out.Attempts - 1))
		}
		switch r.out.State {
		case "ok":
			if err := d.AddSource(s.Meta()); err != nil {
				return nil, nil, fmt.Errorf("source: ingest: %w", err)
			}
			live, err := fold(d, r.out.SourceID, r.log)
			if err != nil {
				return nil, nil, fmt.Errorf("source: ingest %s: %w", r.out.SourceID, err)
			}
			r.out.Records = live
			rep.Succeeded++
			rep.Records += r.out.Records
			if r.out.Attempts > 1 {
				rep.Degraded = append(rep.Degraded, r.out.SourceID)
			}
			reg.Counter("source.fetch_ok").Inc()
			reg.Counter("source.records_salvaged").Add(int64(r.out.Records))
		case "skipped":
			rep.Dropped = append(rep.Dropped, r.out.SourceID)
			reg.Counter("source.breaker_rejections").Inc()
		default: // dropped
			rep.Dropped = append(rep.Dropped, r.out.SourceID)
			reg.Counter("source.fetch_errors").Inc()
		}
		rep.Outcomes = append(rep.Outcomes, r.out)
	}
	reg.Counter("source.sources_dropped").Add(int64(len(rep.Dropped)))
	if rep.Succeeded < ing.cfg.MinSources {
		return d, rep, fmt.Errorf("source: %d/%d sources survived, need %d: %w",
			rep.Succeeded, rep.Total, ing.cfg.MinSources, ErrTooFewSources)
	}
	return d, rep, nil
}

// fold applies one source's fetched change log to d and returns how
// many of the source's records are left live. An upsert of an ID this
// source already holds replaces the record (RemoveRecord + AddRecord
// moves it to the end, where a stream's dataset keeps it); an upsert of
// an ID another source holds fails in AddRecord; a delete removes the
// ID only if this source holds it.
func fold(d *data.Dataset, src string, log []Delta) (live int, err error) {
	held := func(id string) bool {
		r := d.Record(id)
		return r != nil && r.SourceID == src
	}
	for _, dl := range log {
		switch dl.Op {
		case OpUpsert:
			r := dl.Record
			if r == nil {
				return 0, fmt.Errorf("upsert of %s carries no record", dl.ID)
			}
			if held(r.ID) {
				d.RemoveRecord(r.ID)
				live--
			}
			if err := d.AddRecord(r); err != nil {
				return 0, err
			}
			live++
		case OpDelete:
			if held(dl.ID) {
				d.RemoveRecord(dl.ID)
				live--
			}
		default:
			return 0, fmt.Errorf("unknown delta op %v", dl.Op)
		}
	}
	return live, nil
}

// fetchResult pairs a source's outcome with its fetched log.
type fetchResult struct {
	out Outcome
	log []Delta
}

// ingestOne runs the retry/breaker loop for a single source.
func (ing *Ingestor) ingestOne(ctx context.Context, id string, src DeltaSource, br *breaker) (res fetchResult) {
	res.out = Outcome{SourceID: id}
	var lastErr error
	for attempt := 1; attempt <= ing.cfg.Retries+1; attempt++ {
		if !br.allow(ing.now()) {
			if res.out.Attempts == 0 {
				res.out.State = "skipped"
				res.out.Err = ErrBreakerOpen.Error()
				return res
			}
			lastErr = ErrBreakerOpen
			break
		}
		log, err := fetchSafe(ctx, src)
		res.out.Attempts++
		if err == nil {
			br.success()
			res.out.State = "ok"
			res.log = log
			return res
		}
		br.failure(ing.now())
		lastErr = err
		// Permanent failures and run-context cancellation end the loop;
		// everything else retries.
		if errors.Is(err, ErrPermanent) || ctx.Err() != nil {
			break
		}
		if attempt <= ing.cfg.Retries {
			if ing.sleep(ctx, backoffDelay(id, attempt, ing.cfg.BaseBackoff, ing.cfg.MaxBackoff)) != nil {
				break
			}
		}
	}
	res.out.State = "dropped"
	if lastErr != nil {
		res.out.Err = lastErr.Error()
	}
	return res
}
