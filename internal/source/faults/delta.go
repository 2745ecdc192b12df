package faults

import (
	"context"
	"math/rand"

	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/source"
)

// DeltaConfig tunes the delta-log mangler: adversarial but
// semantics-preserving rewrites of a change log that a correct
// mutable-stream consumer must shrug off. All rates are probabilities
// in [0,1]; the zero value mangles nothing.
type DeltaConfig struct {
	// Seed drives every mangle decision. Each source derives its RNG
	// from Seed and its ID, and the transform is re-derived from
	// scratch on every fetch — so a source's mangled log is canonical:
	// the same bytes on every refetch, with truncated inner fetches
	// mangling to an exact prefix of the full mangled log
	// (refetch-until-covered stays sound).
	Seed int64
	// DupDeleteRate is the per-delete probability the delete is
	// delivered twice in a row (the second must be a no-op).
	DupDeleteRate float64
	// EarlyDeleteRate is the per-upsert probability a delete of the
	// same ID is injected immediately before it (delete-before-insert
	// must be a no-op).
	EarlyDeleteRate float64
	// UpdateStormRate is the per-upsert probability the upsert is
	// delivered stormSize times in a row (replays must be idempotent).
	UpdateStormRate float64
	// Obs counts injected mangles under "faults." when set.
	Obs *obs.Registry
}

// stormSize is the total copies an update storm delivers.
const stormSize = 3

// MangleLog applies cfg's mangles to a change log, deterministically
// per (cfg.Seed, id). It is a pure transform with a fixed RNG budget —
// exactly three draws per input delta, whichever branches fire — so
// the mangled form of any input prefix is an exact prefix of the
// mangled full log.
func MangleLog(id string, log []source.Delta, cfg DeltaConfig) []source.Delta {
	if cfg.DupDeleteRate <= 0 && cfg.EarlyDeleteRate <= 0 && cfg.UpdateStormRate <= 0 {
		return log
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ int64(hashID(id))))
	reg := obs.OrDefault(cfg.Obs)
	out := make([]source.Delta, 0, len(log)+len(log)/4)
	for _, d := range log {
		// Fixed draw order and count per input delta.
		dup := rng.Float64() < cfg.DupDeleteRate
		early := rng.Float64() < cfg.EarlyDeleteRate
		stormy := rng.Float64() < cfg.UpdateStormRate
		switch d.Op {
		case source.OpDelete:
			out = append(out, d)
			if dup {
				reg.Counter("faults.delta_dup_deletes").Inc()
				out = append(out, d)
			}
		case source.OpUpsert:
			if early {
				reg.Counter("faults.delta_early_deletes").Inc()
				out = append(out, source.Deletion(d.ID))
			}
			out = append(out, d)
			if stormy {
				reg.Counter("faults.delta_update_storms").Inc()
				for i := 1; i < stormSize; i++ {
					out = append(out, d)
				}
			}
		default:
			out = append(out, d)
		}
	}
	return out
}

// mangledDeltas decorates a DeltaSource with MangleLog.
type mangledDeltas struct {
	inner source.DeltaSource
	cfg   DeltaConfig
}

// WrapDeltas returns s with cfg's mangles applied to every fetch.
// Because the transform is pure, the wrapped source's canonical log is
// simply MangleLog of the inner canonical log; use MangledTotal (or
// MangleLog on the full inner log) for StreamConfig.Totals.
func WrapDeltas(s source.DeltaSource, cfg DeltaConfig) source.DeltaSource {
	return &mangledDeltas{inner: s, cfg: cfg}
}

// WrapDeltasAll wraps every source in the fleet with the same config.
func WrapDeltasAll(ss []source.DeltaSource, cfg DeltaConfig) []source.DeltaSource {
	out := make([]source.DeltaSource, len(ss))
	for i, s := range ss {
		out[i] = WrapDeltas(s, cfg)
	}
	return out
}

// Meta implements source.DeltaSource.
func (m *mangledDeltas) Meta() *data.Source { return m.inner.Meta() }

// FetchDeltas implements source.DeltaSource.
func (m *mangledDeltas) FetchDeltas(ctx context.Context) ([]source.Delta, error) {
	log, err := m.inner.FetchDeltas(ctx)
	if err != nil {
		return nil, err
	}
	return MangleLog(m.inner.Meta().ID, log, m.cfg), nil
}

// MangledTotal computes the canonical mangled-log length for a source
// whose clean log is known — what StreamConfig.Totals must declare for
// a wrapped source.
func MangledTotal(id string, log []source.Delta, cfg DeltaConfig) int {
	return len(MangleLog(id, log, cfg))
}
