// Package faults injects deterministic failures into sources — the
// chaos half of the ingestion robustness story. Every fault decision
// is drawn from a per-source RNG seeded from (Config.Seed, source ID),
// so a given seed reproduces the exact same fault schedule regardless
// of worker count or wall-clock timing: transient errors on the same
// attempts, the same sources dead, the same log entries truncated or
// corrupted.
//
// The injector's RNG state advances with each fetch, so reproducing a
// run means re-wrapping the sources (Wrap/WrapAll) with the same
// Config, not reusing wrapped sources across runs.
package faults

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/source"
)

// Config tunes the injected fault mix. All rates are probabilities in
// [0,1]; the zero value injects nothing.
type Config struct {
	// Seed drives every fault decision. Each source derives its own
	// RNG from Seed and its ID, so schedules are per-source
	// deterministic.
	Seed int64
	// TransientRate is the per-fetch probability of a retryable error
	// (wrapping source.ErrTransient).
	TransientRate float64
	// DeadRate is the per-source probability, decided once at Wrap
	// time, that the source is permanently dead (every fetch wraps
	// source.ErrPermanent).
	DeadRate float64
	// TruncateRate is the per-fetch probability that a successful
	// payload is cut to the first TruncateFraction of its log entries
	// (default 0.5).
	TruncateRate     float64
	TruncateFraction float64
	// CorruptRate is the per-upsert probability that a delivered
	// record has one field value mangled. Corruption clones the
	// record first — the wrapped source's data is never mutated.
	CorruptRate float64
	// LatencyRate is the per-fetch probability of sleeping Latency
	// (default 50ms) before proceeding; the sleep respects ctx, so a
	// cancelled run cuts a spike short.
	LatencyRate float64
	Latency     time.Duration
	// Obs counts injected faults under "faults." when set.
	Obs *obs.Registry
}

// Wrap returns s with cfg's fault mix injected. Whether the source is
// permanently dead is decided here, so a wrapped fleet has a fixed
// dead set for the whole run.
func Wrap(s source.DeltaSource, cfg Config) source.DeltaSource {
	if cfg.TruncateFraction <= 0 || cfg.TruncateFraction > 1 {
		cfg.TruncateFraction = 0.5
	}
	if cfg.Latency <= 0 {
		cfg.Latency = 50 * time.Millisecond
	}
	f := &faulty{
		inner: s,
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed ^ int64(hashID(s.Meta().ID)))),
	}
	f.dead = f.rng.Float64() < cfg.DeadRate
	if f.dead {
		obs.OrDefault(cfg.Obs).Counter("faults.dead_sources").Inc()
	}
	return f
}

// WrapAll wraps every source in the fleet with the same config.
func WrapAll(ss []source.DeltaSource, cfg Config) []source.DeltaSource {
	out := make([]source.DeltaSource, len(ss))
	for i, s := range ss {
		out[i] = Wrap(s, cfg)
	}
	return out
}

// faulty decorates a source with the fault mix. The mutex serialises
// RNG access; fetches of one source are sequential inside the
// Ingestor's retry loop anyway, so contention is nil.
type faulty struct {
	inner source.DeltaSource
	cfg   Config
	mu    sync.Mutex
	rng   *rand.Rand
	dead  bool
	fetch int // fetch counter, for error messages
}

// Meta implements source.DeltaSource.
func (f *faulty) Meta() *data.Source { return f.inner.Meta() }

// FetchDeltas implements source.DeltaSource. Fault rolls happen in a
// fixed order (latency, transient, fetch, truncate, per-upsert
// corruption), so the RNG stream — and therefore the schedule — depends
// only on the seed and the number of prior fetches.
func (f *faulty) FetchDeltas(ctx context.Context) ([]source.Delta, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fetch++
	reg := obs.OrDefault(f.cfg.Obs)
	id := f.inner.Meta().ID
	if f.dead {
		return nil, fmt.Errorf("faults: %s is dead: %w", id, source.ErrPermanent)
	}
	if f.cfg.LatencyRate > 0 && f.rng.Float64() < f.cfg.LatencyRate {
		reg.Counter("faults.latency_spikes").Inc()
		if err := sleepCtx(ctx, f.cfg.Latency); err != nil {
			return nil, fmt.Errorf("faults: %s latency spike: %w", id, err)
		}
	}
	if f.cfg.TransientRate > 0 && f.rng.Float64() < f.cfg.TransientRate {
		reg.Counter("faults.transient").Inc()
		return nil, fmt.Errorf("faults: %s fetch %d flaked: %w", id, f.fetch, source.ErrTransient)
	}
	log, err := f.inner.FetchDeltas(ctx)
	if err != nil {
		return nil, err
	}
	if f.cfg.TruncateRate > 0 && f.rng.Float64() < f.cfg.TruncateRate {
		reg.Counter("faults.truncated").Inc()
		keep := int(float64(len(log)) * f.cfg.TruncateFraction)
		log = log[:keep]
	}
	if f.cfg.CorruptRate > 0 {
		out := log
		copied := false
		for i, d := range log {
			if d.Op != source.OpUpsert || f.rng.Float64() >= f.cfg.CorruptRate {
				continue
			}
			if !copied {
				out = append([]source.Delta(nil), log...)
				copied = true
			}
			out[i].Record = corrupt(d.Record, f.rng)
			reg.Counter("faults.corrupted_records").Inc()
		}
		log = out
	}
	return log, nil
}

// corrupt clones r and mangles one field value (chosen from the
// record's sorted attribute order, so the choice is deterministic).
func corrupt(r *data.Record, rng *rand.Rand) *data.Record {
	attrs := r.Attrs()
	c := r.Clone()
	if len(attrs) == 0 {
		return c
	}
	a := attrs[rng.Intn(len(attrs))]
	c.Set(a, data.String("‽"+reverse(r.Get(a).String())))
	return c
}

func reverse(s string) string {
	b := []rune(s)
	for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
	return string(b)
}

// sleepCtx waits d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// hashID is the 64-bit FNV-1a hash of s, mixed into every per-source
// seed.
func hashID(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
