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

// DeltaSource is one fetchable data source: its canonical sequence is a
// change log. FetchDeltas returns (a possibly truncated prefix of) the
// log or an error; implementations should honour ctx cancellation and
// may classify failures by wrapping ErrTransient or ErrPermanent
// (unclassified errors are treated as transient).
type DeltaSource interface {
	// Meta returns the source's metadata. Cheap and side-effect free.
	Meta() *data.Source
	// FetchDeltas returns the source's change log. Callers never mutate
	// the returned slice or its records, so implementations may return
	// shared backing data.
	FetchDeltas(ctx context.Context) ([]Delta, error)
}

// DeltaStatic is a DeltaSource over an in-memory log — the adapter for
// generated webs, already-loaded datasets, churn workloads and tests.
// FetchDeltas never fails.
type DeltaStatic struct {
	Src *data.Source
	Log []Delta
}

// Meta implements DeltaSource.
func (s *DeltaStatic) Meta() *data.Source { return s.Src }

// FetchDeltas implements DeltaSource, returning the shared log as-is
// (no copy), so a fetch allocates nothing.
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
