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
// churn workloads, lifted static record sources and tests. FetchDeltas
// never fails.
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
// one upsert per record — an insert-only change log. A *Static is
// lifted once into a *DeltaStatic: one shared log, the len(Log) totals
// fallback, and no allocation per fetch. Any other source is lifted
// positionally on every fetch, so a truncated or faulty record fetch
// becomes an equally truncated delta log and fault wrappers
// (faults.Wrap) compose transparently underneath.
func AsDeltaSource(src Source) DeltaSource {
	if st, ok := src.(*Static); ok {
		return &DeltaStatic{Src: st.Src, Log: UpsertLog(st.Recs)}
	}
	return recordDeltas{src}
}

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
