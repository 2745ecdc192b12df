// Package source models data acquisition as a fleet of independently
// failing web sources — the operational face of the tutorial's Volume
// and Velocity discussion. Upstream of the integration pipeline, real
// source fetches time out, flake, truncate and die; this package puts
// each source behind one small interface, DeltaSource, whose fetch
// returns the source's change log (record upserts and deletions; a
// static source is one upsert per record). The resilient Ingestor
// (retry with capped exponential backoff, per-source circuit breaking,
// bounded fan-out, graceful degradation) folds whatever survives into
// a data.Dataset plus an exact Report of what was dropped or degraded;
// the DeltaStreamer delivers the same logs as epochs.
//
// Everything is deterministic: sources ingest in sorted-ID order, each
// source's retry schedule depends only on its ID and attempt number,
// and the assembled dataset and Report are byte-identical for any
// worker count.
package source

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/data"
	"repro/internal/datagen"
)

// Sentinel errors. FetchDeltas implementations and the fault injector
// wrap these so the Ingestor (and callers) can classify failures with
// errors.Is.
var (
	// ErrTransient marks a failure worth retrying (timeouts, flaky
	// reads, rate limits).
	ErrTransient = errors.New("source: transient failure")
	// ErrPermanent marks a failure that retrying cannot fix (dead host,
	// revoked credentials). The Ingestor drops the source immediately.
	ErrPermanent = errors.New("source: permanent failure")
	// ErrBreakerOpen is reported for sources skipped because their
	// circuit breaker was open.
	ErrBreakerOpen = errors.New("source: circuit breaker open")
	// ErrTooFewSources is wrapped by Ingest when fewer sources survived
	// than IngestConfig.MinSources requires.
	ErrTooFewSources = errors.New("source: too few sources survived ingestion")
)

// FromDataset turns every source of a dataset into a *DeltaStatic
// upsert log (one upsert per record, in the dataset's order), sorted by
// source ID.
func FromDataset(d *data.Dataset) []DeltaSource {
	srcs := d.Sources() // already sorted by ID
	out := make([]DeltaSource, 0, len(srcs))
	for _, s := range srcs {
		out = append(out, &DeltaStatic{Src: s, Log: UpsertLog(d.SourceRecords(s.ID))})
	}
	return out
}

// FromWeb turns a generated source web into one upsert log per
// generated source.
func FromWeb(w *datagen.Web) []DeltaSource {
	return FromDataset(w.Dataset)
}

// sortSources returns the sources in ascending Meta().ID order,
// rejecting duplicate IDs (two sources feeding the same ID would make
// the assembled dataset depend on scheduling).
func sortSources(sources []DeltaSource) ([]DeltaSource, error) {
	out := append([]DeltaSource(nil), sources...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Meta().ID < out[j].Meta().ID })
	for i := 1; i < len(out); i++ {
		if out[i].Meta().ID == out[i-1].Meta().ID {
			return nil, fmt.Errorf("source: duplicate source ID %q", out[i].Meta().ID)
		}
	}
	return out, nil
}
