// Package blocking implements the candidate-pair generation techniques
// the Big Data Integration tutorial surveys for taming the Volume
// dimension of record linkage: standard key blocking, sorted
// neighbourhood, q-gram blocking, canopy clustering, suffix and token
// blocking, block purging, and meta-blocking over the blocking graph.
package blocking

import (
	"repro/internal/data"
	"repro/internal/tokenize"
)

// KeyFunc derives zero or more blocking keys from a record. A record
// lands in one block per distinct key.
type KeyFunc func(r *data.Record) []string

// Blocker produces candidate pairs from a set of records.
type Blocker interface {
	// Candidates returns the deduplicated candidate pairs for records.
	Candidates(records []*data.Record) []data.Pair
}

// candidates is the one door behind every Blocker.Candidates: it runs
// pass over a fresh engine and materialises the pairs. Blocker has no
// error return, so this is where an error stuck to the engine is
// re-raised.
func candidates(records []*data.Record, workers int, pass func(e *Engine) *CandidateSet) []data.Pair {
	e := NewEngineOpts(records, Opts{Workers: workers})
	pairs := pass(e).Pairs()
	e.sink.must()
	return pairs
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
	// Workers bounds the block-building and pair-expansion workers
	// (0 = NumCPU). Output is identical for any value.
	Workers int
}

// Candidates implements Blocker: first occurrence over the sorted
// keys, in-block input order, identical at any worker count.
func (s Standard) Candidates(records []*data.Record) []data.Pair {
	return candidates(records, s.Workers, func(e *Engine) *CandidateSet {
		return e.Blocks(s.Key).Purge(s.MaxBlock).CandidateSet()
	})
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
			keys = append(keys, tokenize.Words(v.String())...)
		}
		return keys
	}
}

// AllTokensKey emits a key per token of every field value — used when
// schemas are unaligned and attribute names are unreliable.
func AllTokensKey() KeyFunc {
	return func(r *data.Record) []string {
		var keys []string
		for _, a := range r.Attrs() {
			keys = append(keys, tokenize.Words(r.Fields[a].String())...)
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
