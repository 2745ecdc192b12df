package similarity

import "repro/internal/tokenize"

// Jaccard returns |A∩B| / |A∪B| over the word sets of a and b.
// Two empty strings are perfectly similar.
func Jaccard(a, b string) float64 { return wordSetMetric(kernelJaccard, a, b) }

// QGramJaccard returns the Jaccard similarity over padded q-gram sets.
func QGramJaccard(a, b string, q int) float64 {
	sa, sb := tokenize.QGramSet(a, q), tokenize.QGramSet(b, q)
	return setKernel(kernelJaccard, sa, len(sa), sb, len(sb))
}

// Dice returns 2|A∩B| / (|A|+|B|) over word sets.
func Dice(a, b string) float64 { return wordSetMetric(kernelDice, a, b) }

// Overlap returns |A∩B| / min(|A|,|B|) over word sets — the overlap
// coefficient, robust to one string being a sub-description of the other.
func Overlap(a, b string) float64 { return wordSetMetric(kernelOverlap, a, b) }

// CosineSet returns the set-cosine similarity |A∩B| / sqrt(|A||B|)
// over word sets.
func CosineSet(a, b string) float64 { return wordSetMetric(kernelCosine, a, b) }

// wordSetMetric scores the word sets of a and b by the kernel k, the
// one a FeatureIndex runs over the sets' cached IDs.
func wordSetMetric(k kernel, a, b string) float64 {
	sa, sb := tokenize.WordSet(a), tokenize.WordSet(b)
	return setKernel(k, sa, len(sa), sb, len(sb))
}

// TFIDFCosine computes corpus-weighted cosine similarity between a and b
// using TF-IDF vectors from the supplied corpus.
func TFIDFCosine(c *tokenize.Corpus, a, b string) float64 {
	va, vb := c.Vector(a), c.Vector(b)
	if va == nil && vb == nil {
		return 1
	}
	return clamp01(tokenize.Dot(va, vb))
}

// TFIDF wraps TFIDFCosine as a field Metric over the supplied corpus.
// A FeatureIndex has no kernel for it (see kernelOf): a cached field
// scores through Values, against this corpus, exactly as uncached.
func TFIDF(c *tokenize.Corpus) Metric {
	return func(a, b string) float64 { return TFIDFCosine(c, a, b) }
}

// MongeElkan computes the asymmetric Monge-Elkan similarity: for each
// token of a, the best inner similarity against tokens of b, averaged.
// The inner metric defaults to JaroWinkler when nil.
func MongeElkan(a, b string, inner func(x, y string) float64) float64 {
	if inner == nil {
		inner = JaroWinkler
	}
	ta, tb := tokenize.Words(a), tokenize.Words(b)
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	var sum float64
	for _, x := range ta {
		best := 0.0
		for _, y := range tb {
			if s := inner(x, y); s > best {
				best = s
			}
		}
		sum += best
	}
	return sum / float64(len(ta))
}

// SoftTFIDF combines TF-IDF weighting with a fuzzy inner metric: tokens
// of a and b count as matching when inner similarity ≥ theta, weighted
// by their TF-IDF weights (Cohen et al.). The inner metric defaults to
// JaroWinkler; theta defaults to 0.9 when <= 0.
func SoftTFIDF(c *tokenize.Corpus, a, b string, inner func(x, y string) float64, theta float64) float64 {
	if inner == nil {
		inner = JaroWinkler
	}
	if theta <= 0 {
		theta = 0.9
	}
	va, vb := c.Vector(a), c.Vector(b)
	if len(va) == 0 && len(vb) == 0 {
		return 1
	}
	if len(va) == 0 || len(vb) == 0 {
		return 0
	}
	var sum float64
	for _, wa := range va {
		best, bestSim := -1, 0.0
		for j, wb := range vb {
			if s := inner(wa.Term, wb.Term); s >= theta && s > bestSim {
				best, bestSim = j, s
			}
		}
		if best >= 0 {
			sum += wa.W * vb[best].W * bestSim
		}
	}
	return clamp01(sum)
}

func clamp01(x float64) float64 {
	switch {
	case x < 0:
		return 0
	case x > 1:
		return 1
	}
	return x
}
