// Package blocking implements the candidate-pair generation techniques
// the Big Data Integration tutorial surveys for taming the Volume
// dimension of record linkage: standard key blocking, sorted
// neighbourhood, q-gram blocking, canopy clustering, suffix and token
// blocking, block purging, and meta-blocking over the blocking graph.
//
// Each technique is a value run as a pass over the caller's Engine: the
// pass takes the engine's workers, metrics registry, context and error
// sink, so a technique carries no settings of its own beyond its
// parameters, and an error sticks to the engine instead of panicking.
package blocking

import (
	"repro/internal/data"
	"repro/internal/tokenize"
)

// KeyFunc derives zero or more blocking keys from a record. A record
// lands in one block per distinct key.
type KeyFunc func(r *data.Record) []string

// Blocker is one candidate-generation technique, run as a pass over
// an engine's records.
type Blocker interface {
	// Candidates returns the deduplicated candidates in the technique's
	// standard emission order. An error sticks to e (read e.Err) and
	// leaves the set empty.
	Candidates(e *Engine) *CandidateSet
}

// RankedBlocker is a technique that can also order its candidates
// most-promising-first — the input of rank fusion (Engine.FuseRanked)
// and of progressive, budget-limited resolution.
type RankedBlocker interface {
	Blocker
	// Ranked returns the same candidates most-promising-first. The set
	// is always in memory, whatever the engine's pair-memory budget: it
	// is a fusion-kernel input, not a long-lived candidate set.
	Ranked(e *Engine) *CandidateSet
}

// smallKeys is the per-record key count up to which keySet dedupes by
// scanning a reused slice instead of allocating a map.
const smallKeys = 8

// keySet deduplicates one record's blocking keys. Most key functions
// emit a handful of keys, so the common case is a linear scan of a
// small reused slice; prolific functions (q-grams, suffixes) spill to
// a map that is cleared, not reallocated, between records.
type keySet struct {
	small []string
	big   map[string]bool
}

func (s *keySet) reset() {
	s.small = s.small[:0]
	if s.big != nil {
		clear(s.big)
	}
}

// add reports whether k is new, recording it either way.
func (s *keySet) add(k string) bool {
	for _, have := range s.small {
		if have == k {
			return false
		}
	}
	if len(s.small) < smallKeys {
		s.small = append(s.small, k)
		return true
	}
	if s.big == nil {
		s.big = map[string]bool{}
	}
	if s.big[k] {
		return false
	}
	s.big[k] = true
	return true
}

// Standard is classic key blocking: records sharing any key are
// candidates.
type Standard struct {
	Key KeyFunc
	// MaxBlock purges blocks above this size when > 0.
	MaxBlock int
}

// Candidates implements Blocker: first occurrence over the sorted
// keys, in-block input order, identical at any worker count. Under the
// engine's pair-memory budget the set may be spilled (release it with
// Close).
func (s Standard) Candidates(e *Engine) *CandidateSet {
	return e.Blocks(s.Key).Purge(s.MaxBlock).CandidateSet()
}

// Ranked implements RankedBlocker in progressive order (see
// Indexed.ProgressiveOrder): pairs of smaller blocks first.
func (s Standard) Ranked(e *Engine) *CandidateSet {
	return e.set(e.sweep(e.Blocks(s.Key).Purge(s.MaxBlock).ProgressiveOrder().rows))
}

// AttrPrefixKey blocks on the first n runes of the normalised attribute
// value — the textbook blocking key.
func AttrPrefixKey(attr string, n int) KeyFunc {
	return func(r *data.Record) []string {
		v := r.Get(attr)
		if v.IsNull() {
			return nil
		}
		p := tokenize.Prefix(v.String(), n)
		if p == "" {
			return nil
		}
		return []string{p}
	}
}

// AttrExactKey blocks on the full normalised attribute value (identifier
// blocking, e.g. on a product id).
func AttrExactKey(attr string) KeyFunc {
	return func(r *data.Record) []string {
		v := r.Get(attr)
		if v.IsNull() {
			return nil
		}
		k := tokenize.Normalize(v.String())
		if k == "" {
			return nil
		}
		return []string{k}
	}
}

// TokenKey emits one key per distinct normalised token of the attribute
// — token blocking, the schema-agnostic baseline from the heterogeneous
// ER literature.
func TokenKey(attrs ...string) KeyFunc {
	return func(r *data.Record) []string {
		var keys []string
		for _, attr := range attrs {
			v := r.Get(attr)
			if v.IsNull() {
				continue
			}
			keys = tokenize.AppendWords(keys, v.String())
		}
		return keys
	}
}

// AllTokensKey emits a key per token of every field value — used when
// schemas are unaligned and attribute names are unreliable.
func AllTokensKey() KeyFunc {
	return func(r *data.Record) []string {
		var keys []string
		for _, f := range r.Fields() {
			keys = tokenize.AppendWords(keys, f.Value.String())
		}
		return keys
	}
}

// QGramKey emits the padded q-grams of the attribute value as keys,
// tolerating typos in the blocking key at the cost of more blocks.
func QGramKey(attr string, q int) KeyFunc {
	return func(r *data.Record) []string {
		v := r.Get(attr)
		if v.IsNull() {
			return nil
		}
		return tokenize.QGrams(v.String(), q)
	}
}

// SuffixKey emits all suffixes of the normalised value with length >=
// minLen (suffix-array blocking), robust to prefix corruption.
func SuffixKey(attr string, minLen int) KeyFunc {
	return func(r *data.Record) []string {
		v := r.Get(attr)
		if v.IsNull() {
			return nil
		}
		s := []rune(tokenize.Normalize(v.String()))
		if len(s) < minLen {
			return nil
		}
		var keys []string
		for i := 0; i+minLen <= len(s); i++ {
			keys = append(keys, string(s[i:]))
		}
		return keys
	}
}
