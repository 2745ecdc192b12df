// Package extract implements the wrapper-induction substrate upstream
// of the integration pipeline: sources publish records through
// site-specific page templates (label dialects, fixed field order,
// boilerplate), and a wrapper — induced from a handful of a site's
// pages by exploiting local structural homogeneity — turns pages back
// into records. The velocity phenomenon the tutorial highlights
// (extraction rules are brittle over time) is modelled by template
// changes that break induced wrappers until they are re-induced.
package extract

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/data"
)

// Template is one site's page layout: a label per attribute, a fixed
// field order, boilerplate lines and a label/value separator.
type Template struct {
	// LabelOf maps record attribute → the label printed on the page.
	LabelOf map[string]string
	// Order fixes the attribute order on every page (local homogeneity).
	Order []string
	// Boilerplate lines are printed on every page (nav, footer, ads).
	Boilerplate []string
	// Sep separates label from value. Default ": ".
	Sep string
}

func (t *Template) sep() string {
	if t.Sep == "" {
		return ": "
	}
	return t.Sep
}

// NewTemplate derives a deterministic template for a site: labels come
// from the attribute names with a site-specific decoration, order is a
// seeded shuffle, boilerplate is generic.
func NewTemplate(seed int64, attrs []string) *Template {
	r := rand.New(rand.NewSource(seed))
	t := &Template{LabelOf: map[string]string{}, Sep: ": "}
	decorations := []string{"%s", "product %s", "%s info", "item %s"}
	deco := decorations[r.Intn(len(decorations))]
	for _, a := range attrs {
		label := strings.ReplaceAll(a, "_", " ")
		t.LabelOf[a] = fmt.Sprintf(deco, label)
	}
	t.Order = append([]string(nil), attrs...)
	sort.Strings(t.Order)
	r.Shuffle(len(t.Order), func(i, j int) { t.Order[i], t.Order[j] = t.Order[j], t.Order[i] })
	t.Boilerplate = []string{
		fmt.Sprintf("welcome to store %d", r.Intn(1000)),
		"free shipping on orders over 50",
		fmt.Sprintf("copyright %d", 2000+r.Intn(25)),
	}
	return t
}

// Mutate returns a changed template — the page redesign that breaks
// wrappers: exactly round(renameFraction × #labels) labels are renamed
// (chosen by seeded shuffle) and the field order reshuffled.
func (t *Template) Mutate(seed int64, renameFraction float64) *Template {
	r := rand.New(rand.NewSource(seed))
	nt := &Template{LabelOf: map[string]string{}, Sep: t.Sep}
	attrs := make([]string, 0, len(t.LabelOf))
	for a := range t.LabelOf {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	shuffled := append([]string(nil), attrs...)
	r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	renameCount := int(renameFraction*float64(len(attrs)) + 0.5)
	renamed := map[string]bool{}
	for i := 0; i < renameCount && i < len(shuffled); i++ {
		renamed[shuffled[i]] = true
	}
	for _, a := range attrs {
		label := t.LabelOf[a]
		if renamed[a] {
			label = "new " + label
		}
		nt.LabelOf[a] = label
	}
	nt.Order = append([]string(nil), t.Order...)
	r.Shuffle(len(nt.Order), func(i, j int) { nt.Order[i], nt.Order[j] = nt.Order[j], nt.Order[i] })
	nt.Boilerplate = append([]string(nil), t.Boilerplate...)
	nt.Boilerplate[0] = "redesigned " + nt.Boilerplate[0]
	return nt
}

// Page is one rendered product page.
type Page struct {
	// RecordID carries ground truth for evaluation (never used by the
	// extractor).
	RecordID string
	Lines    []string
}

// Render produces the page for one record under the template:
// boilerplate header, one "label<sep>value" line per present attribute
// in template order, boilerplate footer.
func (t *Template) Render(rec *data.Record) Page {
	p := Page{RecordID: rec.ID}
	p.Lines = append(p.Lines, t.Boilerplate[0])
	for _, a := range t.Order {
		v := rec.Get(a)
		if v.IsNull() {
			continue
		}
		label := t.LabelOf[a]
		if label == "" {
			label = a
		}
		p.Lines = append(p.Lines, label+t.sep()+v.String())
	}
	p.Lines = append(p.Lines, t.Boilerplate[1:]...)
	return p
}

// Wrapper is an induced extraction rule for one site: the labels whose
// lines carry data, and the separator.
type Wrapper struct {
	Sep    string
	Fields []string // data-carrying labels, sorted
	// boiler lines observed constant across training pages.
	boiler map[string]bool
}

// Induce learns a wrapper from a site's pages by local homogeneity:
// lines constant across all pages are boilerplate; lines sharing a
// "label<sep>" prefix whose suffix varies (or repeats across pages
// under the same label) are data fields. At least 2 pages are required.
func Induce(pages []Page, sep string) (*Wrapper, error) {
	if len(pages) < 2 {
		return nil, fmt.Errorf("extract: wrapper induction needs >= 2 pages, got %d", len(pages))
	}
	if sep == "" {
		sep = ": "
	}
	// Count how often each full line and each label appears.
	lineCount := map[string]int{}
	labelCount := map[string]int{}
	labelValues := map[string]map[string]bool{}
	for _, p := range pages {
		seenLabel := map[string]bool{}
		for _, line := range p.Lines {
			lineCount[line]++
			if i := strings.Index(line, sep); i > 0 {
				label := line[:i]
				if !seenLabel[label] {
					seenLabel[label] = true
					labelCount[label]++
					if labelValues[label] == nil {
						labelValues[label] = map[string]bool{}
					}
					labelValues[label][line[i+len(sep):]] = true
				}
			}
		}
	}
	w := &Wrapper{Sep: sep, boiler: map[string]bool{}}
	for line, n := range lineCount {
		if n == len(pages) {
			// Constant on every page. If it parses as a label line whose
			// value never varies, it is boilerplate, not data.
			if i := strings.Index(line, sep); i > 0 {
				if len(labelValues[line[:i]]) > 1 {
					continue // same line everywhere but label also varies elsewhere
				}
			}
			w.boiler[line] = true
		}
	}
	for label, n := range labelCount {
		// A data label appears on most pages and its values vary (or the
		// label appears on several pages — constant-valued fields like a
		// shared brand are still fields if the full line is not globally
		// constant).
		if n >= (len(pages)+1)/2 && len(labelValues[label]) >= 1 {
			sample := label + sep + firstKey(labelValues[label])
			if len(labelValues[label]) == 1 && w.boiler[sample] {
				continue
			}
			w.Fields = append(w.Fields, label)
		}
	}
	sort.Strings(w.Fields)
	if len(w.Fields) == 0 {
		return nil, fmt.Errorf("extract: no data fields induced from %d pages", len(pages))
	}
	return w, nil
}

func firstKey(m map[string]bool) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys[0]
}

// Extract parses one page into a record with the given ID and source.
// Only lines matching induced field labels are extracted; values are
// parsed into typed values.
func (w *Wrapper) Extract(p Page, recID, sourceID string) *data.Record {
	fieldSet := map[string]bool{}
	for _, f := range w.Fields {
		fieldSet[f] = true
	}
	rec := data.NewRecord(recID, sourceID)
	for _, line := range p.Lines {
		if w.boiler[line] {
			continue
		}
		i := strings.Index(line, w.Sep)
		if i <= 0 {
			continue
		}
		label := line[:i]
		if !fieldSet[label] {
			continue
		}
		rec.Set(label, data.Parse(line[i+len(w.Sep):]))
	}
	return rec
}

// ExtractionQuality scores extracted records against the originals:
// per-field precision/recall over (attribute-label, value) slots. The
// mapping from template labels back to attributes comes from the
// template (evaluation only).
func ExtractionQuality(t *Template, originals []*data.Record, extracted []*data.Record) (precision, recall float64) {
	// originals[i] corresponds to extracted[i].
	var tp, fp, fn float64
	for i, orig := range originals {
		if i >= len(extracted) {
			break
		}
		got := extracted[i]
		for _, f := range orig.Fields() {
			label := t.LabelOf[f.Attr]
			if label == "" {
				label = f.Attr
			}
			want := f.Value
			gv := got.Get(label)
			switch {
			case gv.IsNull():
				fn++
			case gv.Equal(want) || gv.String() == want.String():
				tp++
			default:
				fp++
				fn++
			}
		}
		// Extracted fields not in the original are spurious.
		for _, g := range got.Fields() {
			found := false
			for _, f := range orig.Fields() {
				lbl := t.LabelOf[f.Attr]
				if lbl == "" {
					lbl = f.Attr
				}
				if lbl == g.Attr {
					found = true
					break
				}
			}
			if !found {
				fp++
			}
		}
	}
	if tp+fp > 0 {
		precision = tp / (tp + fp)
	}
	if tp+fn > 0 {
		recall = tp / (tp + fn)
	}
	return precision, recall
}
