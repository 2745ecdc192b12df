// Package tokenize provides the text-normalisation and tokenisation
// substrate used by similarity metrics, blocking keys and schema
// matching: Unicode-aware normalisation, word and q-gram tokenizers,
// stop-word filtering and TF-IDF corpus statistics.
package tokenize

import (
	"slices"
	"strings"
	"unicode"
)

// Normalize lower-cases s, maps punctuation to spaces, collapses runs of
// whitespace and trims. It is the canonical pre-processing step applied
// before any string comparison in the pipeline.
func Normalize(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	prevSpace := true // leading spaces are trimmed
	for _, r := range s {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
			prevSpace = false
		default:
			if !prevSpace {
				b.WriteByte(' ')
				prevSpace = true
			}
		}
	}
	return strings.TrimRight(b.String(), " ")
}

// Words splits s into normalised word tokens.
func Words(s string) []string {
	n := Normalize(s)
	if n == "" {
		return nil
	}
	return strings.Split(n, " ")
}

// WordSet returns the distinct normalised words of s, sorted: the set
// form every word set takes.
func WordSet(s string) []string { return distinct(Words(s)) }

// distinct sorts toks and drops repeats, in place.
func distinct(toks []string) []string {
	slices.Sort(toks)
	return slices.Compact(toks)
}

// QGrams returns the padded character q-grams of the normalised form of
// s. Padding with q-1 leading and trailing '#'/'$' markers gives edge
// characters the same weight as interior ones, the standard construction
// for q-gram blocking and similarity. q must be >= 1; q <= 0 returns nil.
func QGrams(s string, q int) []string {
	if q <= 0 {
		return nil
	}
	n := Normalize(s)
	if n == "" {
		return nil
	}
	if q == 1 {
		out := make([]string, 0, len(n))
		for _, r := range n {
			out = append(out, string(r))
		}
		return out
	}
	runes := []rune(n)
	padded := make([]rune, 0, len(runes)+2*(q-1))
	for i := 0; i < q-1; i++ {
		padded = append(padded, '#')
	}
	padded = append(padded, runes...)
	for i := 0; i < q-1; i++ {
		padded = append(padded, '$')
	}
	out := make([]string, 0, len(padded)-q+1)
	for i := 0; i+q <= len(padded); i++ {
		out = append(out, string(padded[i:i+q]))
	}
	return out
}

// QGramSet returns the distinct q-grams of s, sorted.
func QGramSet(s string, q int) []string { return distinct(QGrams(s, q)) }

// defaultStopWords is a small English stop-word list adequate for
// product-style titles and attribute names.
var defaultStopWords = map[string]bool{
	"a": true, "an": true, "and": true, "are": true, "as": true, "at": true,
	"be": true, "by": true, "for": true, "from": true, "in": true, "is": true,
	"it": true, "of": true, "on": true, "or": true, "the": true, "to": true,
	"with": true,
}

// StripStopWords removes default English stop words from tokens,
// preserving order.
func StripStopWords(tokens []string) []string {
	out := tokens[:0:0]
	for _, t := range tokens {
		if !defaultStopWords[t] {
			out = append(out, t)
		}
	}
	return out
}

// Prefix returns the first n runes of the normalised form of s — the
// classic blocking-key transform. Shorter strings are returned whole.
func Prefix(s string, n int) string {
	norm := Normalize(s)
	runes := []rune(norm)
	if len(runes) <= n {
		return norm
	}
	return string(runes[:n])
}

// Fingerprint returns the sorted, deduplicated words of s joined by
// spaces: identical fingerprints group token-permuted variants
// ("john smith" vs "smith john").
func Fingerprint(s string) string { return strings.Join(WordSet(s), " ") }
