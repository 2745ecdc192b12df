package blocking

import (
	"hash/fnv"
	"slices"

	"repro/internal/data"
	"repro/internal/parallel"
	"repro/internal/similarity"
	"repro/internal/tokenize"
)

// MinHashLSH is locality-sensitive-hashing blocking for web-scale ER:
// each record's token set is summarised by a MinHash signature; the
// signature is split into bands, and records colliding on any band
// become candidates. Pairs with Jaccard similarity above the scheme's
// threshold (≈ (1/bands)^(1/rows)) collide with high probability; very
// dissimilar pairs almost never do — sub-quadratic candidate
// generation without key engineering.
type MinHashLSH struct {
	// Attrs are tokenised into the record's shingle set. Default {"title"}.
	Attrs []string
	// Bands × Rows = signature length. Defaults 8 × 4 (threshold ≈ 0.59).
	Bands int
	Rows  int
	// Seed varies the hash family.
	Seed uint64
}

func (m MinHashLSH) params() (attrs []string, bands, rows int) {
	attrs = m.Attrs
	if len(attrs) == 0 {
		attrs = []string{"title"}
	}
	bands = m.Bands
	if bands <= 0 {
		bands = 8
	}
	rows = m.Rows
	if rows <= 0 {
		rows = 4
	}
	return
}

// signature computes the record's MinHash signature of length
// bands*rows. Records without tokens return nil.
func (m MinHashLSH) signature(r *data.Record, attrs []string, n int) []uint64 {
	var tokens []string
	for _, a := range attrs {
		v := r.Get(a)
		if v.IsNull() {
			continue
		}
		tokens = append(tokens, tokenize.Words(v.String())...)
	}
	if len(tokens) == 0 {
		return nil
	}
	sig := make([]uint64, n)
	for i := range sig {
		sig[i] = ^uint64(0)
	}
	for _, tok := range tokens {
		base := hash64(tok)
		for i := 0; i < n; i++ {
			// A cheap universal-ish family: xorshift-mix of the token
			// hash with a per-function constant derived from i and Seed.
			h := mix64(base ^ (m.Seed+uint64(i)+1)*0x9e3779b97f4a7c15)
			if h < sig[i] {
				sig[i] = h
			}
		}
	}
	return sig
}

// buckets is the front half of MinHash-LSH, shared by both emission
// orders: signatures computed on the engine's pool, records grouped by
// band hash in input order. It returns the colliding buckets (two or
// more members) in ascending band-hash order — a canonical order,
// identical for any worker count.
func (m MinHashLSH) buckets(e *Engine) [][]uint32 {
	if e.sink.failed() {
		return nil
	}
	attrs, bands, rows := m.params()
	n := bands * rows
	sigs, err := parallel.MapSlice(e.cfg, e.recs, func(r *data.Record) []uint64 {
		return m.signature(r, attrs, n)
	})
	if e.sink.check(err) {
		return nil
	}
	byHash := map[uint64][]uint32{} // band hash → record ranks, input order
	for i, sig := range sigs {
		if sig == nil {
			continue
		}
		for b := 0; b < bands; b++ {
			h := bandHash(b, sig[b*rows:(b+1)*rows])
			byHash[h] = append(byHash[h], e.ranks[i])
		}
	}
	hashes := make([]uint64, 0, len(byHash))
	for h, members := range byHash {
		if len(members) >= 2 {
			hashes = append(hashes, h)
		}
	}
	slices.Sort(hashes)
	out := make([][]uint32, len(hashes))
	for i, h := range hashes {
		out[i] = byHash[h]
	}
	return out
}

// Candidates implements Blocker: buckets pair up in band-hash order.
func (m MinHashLSH) Candidates(e *Engine) *CandidateSet {
	return e.set(e.sweep(m.buckets(e)))
}

// Ranked implements RankedBlocker progressively: buckets are emitted
// smallest-first (ties by band hash), the same
// rare-collisions-are-most-promising heuristic Standard.Ranked uses.
func (m MinHashLSH) Ranked(e *Engine) *CandidateSet {
	buckets := m.buckets(e) // in hash order, so a stable sort ties by hash
	slices.SortStableFunc(buckets, func(a, b []uint32) int { return len(a) - len(b) })
	return e.set(e.sweep(buckets))
}

// EstimateJaccard estimates the Jaccard similarity of two records'
// token sets from their MinHash signatures — useful to pre-filter
// candidates without re-tokenising.
func (m MinHashLSH) EstimateJaccard(a, b *data.Record) float64 {
	attrs, bands, rows := m.params()
	n := bands * rows
	sa := m.signature(a, attrs, n)
	sb := m.signature(b, attrs, n)
	if sa == nil || sb == nil {
		return 0
	}
	agree := 0
	for i := range sa {
		if sa[i] == sb[i] {
			agree++
		}
	}
	return float64(agree) / float64(n)
}

// bandHash hashes one signature band into a bucket key. The band tag
// keeps bands in separate key spaces.
func bandHash(b int, band []uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	buf[0] = byte(b)
	_, _ = h.Write(buf[:1])
	for _, v := range band {
		putUint64(&buf, v)
		_, _ = h.Write(buf[:])
	}
	return h.Sum64()
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return h.Sum64()
}

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

func putUint64(buf *[8]byte, v uint64) {
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (8 * i))
	}
}

// PhoneticKey blocks on the phonetic encoding of the attribute value:
// "soundex" or "nysiis". Misspelled names that sound alike share keys.
func PhoneticKey(attr, scheme string) KeyFunc {
	return func(r *data.Record) []string {
		v := r.Get(attr)
		if v.IsNull() {
			return nil
		}
		var keys []string
		for _, w := range tokenize.Words(v.String()) {
			var code string
			switch scheme {
			case "nysiis":
				code = similarity.NYSIIS(w)
			default:
				code = similarity.Soundex(w)
			}
			if code != "" {
				keys = append(keys, code)
			}
		}
		return keys
	}
}
