package source

import (
	"context"
	"fmt"

	"repro/internal/data"
)

// DeltaOp is the kind of mutation a Delta carries.
type DeltaOp uint8

const (
	// OpUpsert inserts a record or replaces the live version with the
	// same ID.
	OpUpsert DeltaOp = iota
	// OpDelete retracts the record with Delta.ID. Deleting an ID that
	// was never inserted (or is already dead) is a no-op downstream.
	OpDelete
)

// String renders the op for logs and fingerprints.
func (op DeltaOp) String() string {
	switch op {
	case OpUpsert:
		return "upsert"
	case OpDelete:
		return "delete"
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Delta is one mutation in a source's canonical change log: either a
// record upsert or a deletion by ID. Record is nil for OpDelete.
type Delta struct {
	Op     DeltaOp
	ID     string
	Record *data.Record
}

// Upsert builds an upsert delta for r.
func Upsert(r *data.Record) Delta { return Delta{Op: OpUpsert, ID: r.ID, Record: r} }

// Deletion builds a delete delta for id.
func Deletion(id string) Delta { return Delta{Op: OpDelete, ID: id} }

// DeltaSource is a source whose canonical sequence is a change log
// rather than a record list. FetchDeltas returns (a possibly truncated
// prefix of) the log; like Source.Fetch, callers never mutate the
// returned slice.
type DeltaSource interface {
	// Meta returns the source's metadata. Cheap and side-effect free.
	Meta() *data.Source
	// FetchDeltas returns the source's change log.
	FetchDeltas(ctx context.Context) ([]Delta, error)
}

// DeltaStatic is a DeltaSource over an in-memory log — the adapter for
// churn workloads and tests. FetchDeltas never fails.
type DeltaStatic struct {
	Src *data.Source
	Log []Delta
}

// Meta implements DeltaSource.
func (s *DeltaStatic) Meta() *data.Source { return s.Src }

// FetchDeltas implements DeltaSource, returning the shared log as-is.
func (s *DeltaStatic) FetchDeltas(ctx context.Context) ([]Delta, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.Log, nil
}

// UpsertLog lifts a record list into an all-upsert change log.
func UpsertLog(recs []*data.Record) []Delta {
	out := make([]Delta, len(recs))
	for i, r := range recs {
		out[i] = Upsert(r)
	}
	return out
}

// AsDeltaSource adapts a record Source into a DeltaSource whose log is
// one upsert per record. Because the mapping is positional, a
// truncated or faulty record fetch becomes an equally truncated delta
// log — fault wrappers (faults.Wrap) compose transparently underneath.
func AsDeltaSource(src Source) DeltaSource { return recordDeltas{src} }

type recordDeltas struct{ src Source }

func (a recordDeltas) Meta() *data.Source { return a.src.Meta() }

func (a recordDeltas) FetchDeltas(ctx context.Context) ([]Delta, error) {
	recs, err := a.src.Fetch(ctx)
	if err != nil {
		return nil, err
	}
	return UpsertLog(recs), nil
}

// AsDeltaSources adapts a whole record fleet.
func AsDeltaSources(srcs []Source) []DeltaSource {
	out := make([]DeltaSource, len(srcs))
	for i, s := range srcs {
		out[i] = AsDeltaSource(s)
	}
	return out
}

// DeltaEpoch is one batch of changes across the watched fleet — the
// mutable-stream analogue of Epoch.
type DeltaEpoch struct {
	// Seq numbers epochs from StreamConfig.StartSeq upward.
	Seq int
	// Deltas holds this epoch's changes in delivery order: sources in
	// ascending ID order, each source's deltas in canonical log order.
	Deltas []Delta
	// Cursors snapshots, per source ID, how many of that source's log
	// entries have been delivered once this epoch is applied.
	Cursors map[string]int
}

// DeltaWatch is the watch over a change log: each Poll delivers the
// next (at most) epochSize deltas of the source's canonical log.
type DeltaWatch = watch[Delta]

// NewDeltaWatch builds a watch over src delivering epochSize deltas
// per poll (default 100) with the given refetch budget (default 8;
// negative means none). total declares the canonical log length.
func NewDeltaWatch(src DeltaSource, total, epochSize, retries int) *DeltaWatch {
	return newWatch(src.Meta(), src.FetchDeltas, total, epochSize, retries)
}

// DeltaStreamer is the fleet streamer over change-log sources,
// delivering DeltaEpochs.
type DeltaStreamer = streamer[DeltaEpoch]

// NewDeltaStreamer starts streaming a delta fleet (see startFleet).
// Sources without a cfg.Totals entry fall back to len(Log) when they
// are a *DeltaStatic.
func NewDeltaStreamer(ctx context.Context, sources []DeltaSource, cfg StreamConfig) (*DeltaStreamer, error) {
	return startFleet(ctx, sources, cfg,
		func(s DeltaSource) (func(context.Context) ([]Delta, error), int) {
			if st, ok := s.(*DeltaStatic); ok {
				return s.FetchDeltas, len(st.Log)
			}
			return s.FetchDeltas, -1
		},
		func(seq int, deltas []Delta, cursors map[string]int) DeltaEpoch {
			return DeltaEpoch{Seq: seq, Deltas: deltas, Cursors: cursors}
		})
}
