package source

import (
	"math/rand"
	"strings"

	"repro/internal/data"
)

// ChurnConfig tunes a synthetic churn workload built over a source's
// record list: some records first arrive in a corrupted form and are
// later corrected by a second upsert; some are later retracted. The
// zero value churns nothing (a plain upsert log).
type ChurnConfig struct {
	// Seed drives victim selection and op placement. Each source mixes
	// its ID into the seed, so per-source logs are independent but the
	// whole workload is reproducible.
	Seed int64
	// UpdateRate is the per-record probability that the record first
	// arrives with a mangled title and is corrected later.
	UpdateRate float64
	// DeleteRate is the per-record probability that the record is
	// retracted after arriving (after its correction, if it has one).
	DeleteRate float64
}

// Churn builds a deterministic delta log over recs: every record is
// upserted in canonical order; update victims arrive corrupted and are
// corrected by a later upsert of the true record; delete victims are
// retracted by a later OpDelete. It returns the log plus the set of
// IDs that end the log dead — the live set is recs minus that set,
// with every survivor at its true (corrected) version.
func Churn(recs []*data.Record, cfg ChurnConfig) ([]Delta, map[string]bool) {
	n := len(recs)
	deleted := map[string]bool{}
	if n == 0 {
		return nil, deleted
	}
	seed := cfg.Seed ^ int64(hashID(recs[0].SourceID))
	rng := rand.New(rand.NewSource(seed))

	// extras[i] holds ops scheduled to land after base position i.
	extras := make([][]Delta, n)
	schedule := func(after int, d Delta) int {
		if after >= n {
			after = n - 1
		}
		extras[after] = append(extras[after], d)
		return after
	}
	corrupted := make([]bool, n)
	for i, r := range recs {
		// Fixed draw count per record (2 floats + 2 ints) keeps the
		// schedule independent of which branches fire.
		u := rng.Float64() < cfg.UpdateRate
		d := rng.Float64() < cfg.DeleteRate
		pu := i + 1 + rng.Intn(n)
		pd := i + 1 + rng.Intn(n)
		at := i
		if u {
			corrupted[i] = true
			at = schedule(pu, Upsert(r))
		}
		if d {
			if pd <= at {
				pd = at + 1 // retract only after the correction landed
			}
			schedule(pd, Deletion(r.ID))
			deleted[r.ID] = true
		}
	}

	log := make([]Delta, 0, n+n/4)
	for i, r := range recs {
		first := r
		if corrupted[i] {
			first = corruptTitle(r)
		}
		log = append(log, Upsert(first))
		log = append(log, extras[i]...)
	}
	return log, deleted
}

// corruptTitle clones r with a deterministically mangled title: one
// token dropped (or a junk token appended to single-token titles), so
// the corrupted version usually mis-clusters until corrected.
func corruptTitle(r *data.Record) *data.Record {
	c := r.Clone()
	c.Set("title", data.String(mangledTitleOf(r)))
	return c
}

func mangledTitleOf(r *data.Record) string {
	t := r.Get("title").Str
	toks := strings.Fields(t)
	if len(toks) > 1 {
		// Drop the token picked by the title's own hash — stable per
		// record, no RNG stream consumed.
		drop := int(hashID(r.ID) % uint64(len(toks)))
		toks = append(toks[:drop], toks[drop+1:]...)
		return strings.Join(toks, " ")
	}
	return t + " zzchurn"
}

// ChurnSources builds one DeltaStatic per dataset source with cfg's
// churn applied, returning the fleet (sorted by source ID), the
// per-source log lengths for StreamConfig.Totals, and the union of
// end-of-log dead IDs across the fleet.
func ChurnSources(d *data.Dataset, cfg ChurnConfig) ([]DeltaSource, map[string]int, map[string]bool) {
	srcs := d.Sources()
	fleet := make([]DeltaSource, 0, len(srcs))
	totals := make(map[string]int, len(srcs))
	deleted := map[string]bool{}
	for _, s := range srcs {
		log, dead := Churn(d.SourceRecords(s.ID), cfg)
		fleet = append(fleet, &DeltaStatic{Src: s, Log: log})
		totals[s.ID] = len(log)
		for id := range dead {
			deleted[id] = true
		}
	}
	return fleet, totals, deleted
}
