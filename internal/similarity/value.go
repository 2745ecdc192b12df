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

// noEvidence is the similarity of a value to a null: no evidence
// either way.
const noEvidence = 0.5

// Values compares two typed values. Strings use the supplied metric
// (JaroWinkler when nil), numbers use Numeric, bools and times use
// equality, mismatched kinds fall back to comparing string renderings
// with the metric at half weight, and a null is incomparable with
// anything (0.5, "no evidence").
func Values(a, b data.Value, m Metric) float64 {
	if m == nil {
		m = JaroWinkler
	}
	if a.IsNull() || b.IsNull() {
		return noEvidence
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

// JaccardValues is Values(a, b, Jaccard) for two non-null values whose
// word sets come as sorted distinct IDs from one dictionary: aIDs are
// the IDs of a's words (of its rendering when a is not a string) that
// the dictionary knows and aWords counts all of them, known or not; an
// unknown word widens the union but cannot intersect. bIDs are all of
// b's words. The sets are read only when b is a string; otherwise the
// result is Values itself, which renders and tokenises b when the kinds
// differ. The result is bit-identical to Values.
func JaccardValues(a data.Value, aIDs []uint32, aWords int, b data.Value, bIDs []uint32) float64 {
	switch {
	case b.Kind != data.KindString:
		return Values(a, b, Jaccard)
	case a.Kind == data.KindString:
		return setKernel(kernelJaccard, aIDs, aWords, bIDs, len(bIDs))
	}
	return 0.5 * setKernel(kernelJaccard, aIDs, aWords, bIDs, len(bIDs))
}

// WeightedAverage is how a RecordComparator combines field similarities:
// the weighted mean over the fields either record carries, where a field
// only one of them carries scores 0.5 (Values' "no evidence"), and 0
// when neither carries any compared field. Adding the fields in the
// comparator's field order reproduces Compare bit for bit.
type WeightedAverage struct{ sum, wsum float64 }

// Add adds a field with the given weight and similarity.
func (a *WeightedAverage) Add(weight, sim float64) {
	a.sum += weight * sim
	a.wsum += weight
}

// AddOneSided adds a field only one of the two records carries.
func (a *WeightedAverage) AddOneSided(weight float64) { a.Add(weight, noEvidence) }

// Score returns the weighted mean, 0 when no field was added.
func (a *WeightedAverage) Score() float64 {
	if a.wsum == 0 {
		return 0
	}
	return a.sum / a.wsum
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
// FieldScoresInto to allocation-free cached kernels for every pair of
// records the index holds; any other record — unindexed, or replaced
// since its ID was indexed — falls back to the direct path, as does
// every record when the index was built by another comparator, so a
// stale, partial or foreign index degrades performance, never
// correctness.
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
// BuildFeatureIndex; an index another comparator built is never read);
// nil detaches. Attach, and mutate the index, only
// while no matching worker shares the comparator — the workers only
// read it.
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
// attached index is rc's own and holds entries built from these very
// records.
func (rc *RecordComparator) cachedFeatures(a, b *data.Record) (fa, fb []fieldFeature, ok bool) {
	idx := rc.idx
	if idx == nil || idx.rc != rc {
		return nil, nil, false
	}
	ea, eb := idx.feats[a.ID], idx.feats[b.ID]
	if ea.rec != a || eb.rec != b {
		return nil, nil, false
	}
	return ea.ff, eb.ff, true
}

// fieldSim scores one field from cached features, dispatching to the
// allocation-free kernel when one applies and falling back to Values
// (on the cached value copies) otherwise.
func (rc *RecordComparator) fieldSim(i int, fa, fb []fieldFeature) float64 {
	va, vb := fa[i].val, fb[i].val
	if k := rc.idx.kernels[i]; k != kernelNone &&
		va.Kind == data.KindString && vb.Kind == data.KindString {
		return setKernel(k, fa[i].tokens, len(fa[i].tokens), fb[i].tokens, len(fb[i].tokens))
	}
	return Values(va, vb, rc.fields[i].Metric)
}

// Compare returns the weighted-average similarity of two records in
// [0,1]. With no comparable fields it returns 0.
func (rc *RecordComparator) Compare(a, b *data.Record) float64 {
	var avg WeightedAverage
	if fa, fb, ok := rc.cachedFeatures(a, b); ok {
		rc.obsCached.Inc()
		for i, f := range rc.fields {
			if fa[i].val.IsNull() && fb[i].val.IsNull() {
				continue
			}
			avg.Add(f.Weight, rc.fieldSim(i, fa, fb))
		}
		return avg.Score()
	}
	rc.obsUncached.Inc()
	for _, f := range rc.fields {
		va, vb := a.Get(f.Attr), b.Get(f.Attr)
		if va.IsNull() && vb.IsNull() {
			continue
		}
		avg.Add(f.Weight, Values(va, vb, f.Metric))
	}
	return avg.Score()
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
