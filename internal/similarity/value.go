package similarity

import (
	"math"
	"sort"

	"repro/internal/data"
	"repro/internal/obs"
)

// Metric is a string similarity function in [0,1].
type Metric func(a, b string) float64

// Named returns the built-in metric with the given name, or nil. The
// names are the ones accepted by the bench harness's flags:
// levenshtein, jaro, jarowinkler, jaccard, dice, overlap, cosine, qgram3.
func Named(name string) Metric {
	switch name {
	case "levenshtein":
		return LevenshteinSim
	case "jaro":
		return Jaro
	case "jarowinkler":
		return JaroWinkler
	case "jaccard":
		return Jaccard
	case "dice":
		return Dice
	case "overlap":
		return Overlap
	case "cosine":
		return CosineSet
	case "qgram3":
		return func(a, b string) float64 { return QGramJaccard(a, b, 3) }
	default:
		return nil
	}
}

// Numeric compares two numbers with relative tolerance: similarity
// decays linearly from 1 at equality to 0 at a relative difference of
// scale (default 0.5 when scale <= 0).
func Numeric(a, b, scale float64) float64 {
	if scale <= 0 {
		scale = 0.5
	}
	if a == b {
		return 1
	}
	denom := math.Max(math.Abs(a), math.Abs(b))
	if denom == 0 {
		return 1
	}
	rel := math.Abs(a-b) / denom
	if rel >= scale {
		return 0
	}
	return 1 - rel/scale
}

// Values compares two typed values. Strings use the supplied metric
// (JaroWinkler when nil), numbers use Numeric, bools and times use
// equality, mismatched kinds fall back to comparing string renderings
// with the metric at half weight, and two nulls are incomparable (0.5,
// "no evidence").
func Values(a, b data.Value, m Metric) float64 {
	if m == nil {
		m = JaroWinkler
	}
	if a.IsNull() && b.IsNull() {
		return 0.5
	}
	if a.IsNull() || b.IsNull() {
		return 0.5
	}
	if a.Kind != b.Kind {
		return 0.5 * m(a.String(), b.String())
	}
	switch a.Kind {
	case data.KindString:
		return m(a.Str, b.Str)
	case data.KindNumber:
		return Numeric(a.Num, b.Num, 0)
	case data.KindBool:
		if a.Bool == b.Bool {
			return 1
		}
		return 0
	case data.KindTime:
		if a.Time.Equal(b.Time) {
			return 1
		}
		// Decay over a year.
		d := math.Abs(a.Time.Sub(b.Time).Hours()) / (24 * 365)
		if d >= 1 {
			return 0
		}
		return 1 - d
	}
	return 0
}

// FieldWeight assigns a comparison weight to an attribute.
type FieldWeight struct {
	Attr   string
	Weight float64
	Metric Metric // nil → JaroWinkler for strings
}

// RecordComparator scores record pairs as a weighted average of
// per-field value similarities. Fields missing from both records are
// skipped; fields missing from one contribute the neutral 0.5.
//
// Attaching a FeatureIndex (AttachIndex) switches Compare and
// FieldScoresInto to allocation-free cached kernels for every indexed
// record pair; unindexed records fall back to the direct path, so a
// stale or partial index degrades performance, never correctness.
type RecordComparator struct {
	fields []FieldWeight
	idx    *FeatureIndex

	// Resolved by AttachObs; nil handles no-op, so the untracked
	// comparator pays one branch per Compare.
	obsCached   *obs.Counter
	obsUncached *obs.Counter
}

// NewRecordComparator builds a comparator over the given weighted
// fields. Non-positive weights are dropped.
func NewRecordComparator(fields ...FieldWeight) *RecordComparator {
	kept := make([]FieldWeight, 0, len(fields))
	for _, f := range fields {
		if f.Weight > 0 {
			kept = append(kept, f)
		}
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].Attr < kept[j].Attr })
	return &RecordComparator{fields: kept}
}

// UniformComparator weights the given attributes equally with the given
// metric.
func UniformComparator(m Metric, attrs ...string) *RecordComparator {
	fields := make([]FieldWeight, len(attrs))
	for i, a := range attrs {
		fields[i] = FieldWeight{Attr: a, Weight: 1, Metric: m}
	}
	return NewRecordComparator(fields...)
}

// Fields returns the comparator's weighted fields.
func (rc *RecordComparator) Fields() []FieldWeight { return rc.fields }

// AttachIndex attaches a feature index built from this comparator (see
// BuildFeatureIndex); nil detaches. Attach before sharing the
// comparator across matching workers — the workers only read it.
func (rc *RecordComparator) AttachIndex(idx *FeatureIndex) { rc.idx = idx }

// Index returns the attached feature index, or nil.
func (rc *RecordComparator) Index() *FeatureIndex { return rc.idx }

// AttachObs resolves the comparator's cache-hit counters
// ("matching.cached_compares" / "matching.uncached_compares") against
// reg; nil detaches. Like AttachIndex, attach before sharing across
// workers.
func (rc *RecordComparator) AttachObs(reg *obs.Registry) {
	rc.obsCached = reg.Counter("matching.cached_compares")
	rc.obsUncached = reg.Counter("matching.uncached_compares")
}

// cachedFeatures returns both records' cached field features when the
// attached index covers them.
func (rc *RecordComparator) cachedFeatures(a, b *data.Record) (fa, fb []fieldFeature, ok bool) {
	idx := rc.idx
	if idx == nil || len(idx.fields) != len(rc.fields) {
		return nil, nil, false
	}
	if fa, ok = idx.feats[a.ID]; !ok {
		return nil, nil, false
	}
	if fb, ok = idx.feats[b.ID]; !ok {
		return nil, nil, false
	}
	return fa, fb, true
}

// fieldSim scores one field from cached features, dispatching to the
// allocation-free kernel when one applies and falling back to Values
// (on the cached value copies) otherwise.
func (rc *RecordComparator) fieldSim(i int, fa, fb []fieldFeature) float64 {
	va, vb := fa[i].val, fb[i].val
	if k := rc.idx.kernels[i]; k != kernelNone &&
		va.Kind == data.KindString && vb.Kind == data.KindString {
		if k == kernelTFIDF {
			if rc.idx.corpus != nil {
				return dotKernel(fa[i].tfidf, fb[i].tfidf)
			}
		} else {
			return setKernel(k, fa[i].tokens, fb[i].tokens)
		}
	}
	return Values(va, vb, rc.fields[i].Metric)
}

// Compare returns the weighted-average similarity of two records in
// [0,1]. With no comparable fields it returns 0.
func (rc *RecordComparator) Compare(a, b *data.Record) float64 {
	if fa, fb, ok := rc.cachedFeatures(a, b); ok {
		rc.obsCached.Inc()
		var sum, wsum float64
		for i, f := range rc.fields {
			if fa[i].val.IsNull() && fb[i].val.IsNull() {
				continue
			}
			sum += f.Weight * rc.fieldSim(i, fa, fb)
			wsum += f.Weight
		}
		if wsum == 0 {
			return 0
		}
		return sum / wsum
	}
	rc.obsUncached.Inc()
	var sum, wsum float64
	for _, f := range rc.fields {
		va, vb := a.Get(f.Attr), b.Get(f.Attr)
		if va.IsNull() && vb.IsNull() {
			continue
		}
		sum += f.Weight * Values(va, vb, f.Metric)
		wsum += f.Weight
	}
	if wsum == 0 {
		return 0
	}
	return sum / wsum
}

// FieldScoresInto writes the per-field similarity vector used by
// Fellegi-Sunter style matchers into out, of length len(Fields()): one
// score per comparator field, with -1 marking fields absent from both
// records. Hot loops reuse one buffer across pairs.
func (rc *RecordComparator) FieldScoresInto(out []float64, a, b *data.Record) {
	if fa, fb, ok := rc.cachedFeatures(a, b); ok {
		rc.obsCached.Inc()
		for i := range rc.fields {
			if fa[i].val.IsNull() && fb[i].val.IsNull() {
				out[i] = -1
				continue
			}
			out[i] = rc.fieldSim(i, fa, fb)
		}
		return
	}
	rc.obsUncached.Inc()
	for i, f := range rc.fields {
		va, vb := a.Get(f.Attr), b.Get(f.Attr)
		if va.IsNull() && vb.IsNull() {
			out[i] = -1
			continue
		}
		out[i] = Values(va, vb, f.Metric)
	}
}
