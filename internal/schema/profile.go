// Package schema implements the schema-alignment stage for the Variety
// dimension: per-source attribute profiling, name- and instance-based
// attribute matching, linkage-aware matching (using record-linkage
// results as alignment evidence, the tutorial's pipeline reordering for
// identifier-rich domains), construction of a probabilistic mediated
// schema, probabilistic source-to-mediated mappings, and discovery of
// numeric value transformations (unit conversions).
package schema

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/data"
	"repro/internal/tokenize"
)

// SourceAttr identifies one attribute of one source.
type SourceAttr struct {
	Source string
	Attr   string
}

// String renders "source/attr".
func (sa SourceAttr) String() string { return sa.Source + "/" + sa.Attr }

// Profile summarises one source attribute's observed values.
type Profile struct {
	SourceAttr
	Count     int // records carrying the attribute
	Kinds     map[data.ValueKind]int
	Values    map[string]int // value key → frequency (capped)
	NumCount  int
	NumMean   float64
	NumM2     float64        // Welford accumulator
	TokenFreq map[string]int // tokens across string values
	maxValues int
}

// NumStd returns the standard deviation of numeric values.
func (p *Profile) NumStd() float64 {
	if p.NumCount < 2 {
		return 0
	}
	return math.Sqrt(p.NumM2 / float64(p.NumCount-1))
}

// valueKinds is DominantKind's fixed iteration order: on a tie the
// earlier kind wins.
var valueKinds = [...]data.ValueKind{data.KindString, data.KindNumber, data.KindBool, data.KindTime}

// DominantKind returns the most frequent value kind.
func (p *Profile) DominantKind() data.ValueKind {
	best, bestN := data.KindNull, -1
	for _, k := range valueKinds {
		if n := p.Kinds[k]; n > bestN {
			best, bestN = k, n
		}
	}
	return best
}

// observe folds one value into the profile.
func (p *Profile) observe(v data.Value) {
	p.Count++
	p.Kinds[v.Kind]++
	key := v.Key()
	if len(p.Values) < p.maxValues {
		p.Values[key]++
	} else if _, seen := p.Values[key]; seen {
		p.Values[key]++
	}
	switch v.Kind {
	case data.KindNumber:
		p.NumCount++
		delta := v.Num - p.NumMean
		p.NumMean += delta / float64(p.NumCount)
		p.NumM2 += delta * (v.Num - p.NumMean)
	case data.KindString:
		for _, tok := range tokenize.Words(v.Str) {
			p.TokenFreq[tok]++
		}
	}
}

// Profiler builds profiles for every (source, attribute) in a dataset.
type Profiler struct {
	// MaxValuesPerAttr caps the per-attribute distinct-value histogram.
	// Default 512.
	MaxValuesPerAttr int
	// SkipAttrs lists attribute names excluded from alignment (e.g. the
	// generator's bookkeeping fields). Defaults to {"title","pid","epoch"}.
	SkipAttrs []string
}

// DefaultSkipAttrs are attributes never aligned: record-level text and
// identifiers handled by linkage, not schema alignment.
var DefaultSkipAttrs = []string{"title", "pid", "epoch"}

// Build profiles the dataset and returns profiles sorted by source then
// attribute.
func (pf Profiler) Build(d *data.Dataset) []*Profile {
	maxV := pf.MaxValuesPerAttr
	if maxV <= 0 {
		maxV = 512
	}
	skip := map[string]bool{}
	skipList := pf.SkipAttrs
	if skipList == nil {
		skipList = DefaultSkipAttrs
	}
	for _, a := range skipList {
		skip[a] = true
	}
	byKey := map[SourceAttr]*Profile{}
	for _, r := range d.Records() {
		for _, f := range r.Fields() {
			if skip[f.Attr] {
				continue
			}
			key := SourceAttr{Source: r.SourceID, Attr: f.Attr}
			p := byKey[key]
			if p == nil {
				p = &Profile{
					SourceAttr: key,
					Kinds:      map[data.ValueKind]int{},
					Values:     map[string]int{},
					TokenFreq:  map[string]int{},
					maxValues:  maxV,
				}
				byKey[key] = p
			}
			p.observe(f.Value)
		}
	}
	out := make([]*Profile, 0, len(byKey))
	for _, p := range byKey {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Source != out[j].Source {
			return out[i].Source < out[j].Source
		}
		return out[i].Attr < out[j].Attr
	})
	return out
}

// validateProfiles guards the matchers against empty input.
func validateProfiles(ps []*Profile) error {
	if len(ps) == 0 {
		return fmt.Errorf("schema: no attribute profiles (empty dataset?)")
	}
	return nil
}
