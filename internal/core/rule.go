package core

import (
	"fmt"

	"repro/internal/linkage"
	"repro/internal/similarity"
)

// The default match rule and its settings, shared by Config (batch) and
// StreamConfig (stream) so the two paths cannot drift apart.

const (
	// titleAttr is the attribute the rule compares (and the pipeline
	// token-blocks on).
	titleAttr = "title"
	// idAttr is the identifier attribute whose equality short-circuits
	// the rule.
	idAttr = "pid"
	// defaultMatchThreshold is what a zero MatchThreshold resolves to.
	defaultMatchThreshold = 0.6
)

// ruleComparator is the field-weight half of the default rule: word
// Jaccard on every attribute, title weighted ×2. The snapshot's resolve
// comparator is built from it too.
func ruleComparator(attrs []string) *similarity.RecordComparator {
	fields := make([]similarity.FieldWeight, len(attrs))
	for i, a := range attrs {
		fields[i] = similarity.FieldWeight{Attr: a, Weight: 1, Metric: similarity.Jaccard}
		if a == titleAttr {
			fields[i].Weight = 2
		}
	}
	return similarity.NewRecordComparator(fields...)
}

// defaultRule is the matcher both paths link by: identifier equality
// short-circuits, otherwise ruleComparator decides against threshold.
func defaultRule(attrs []string, threshold float64) linkage.RuleMatcher {
	return linkage.RuleMatcher{Exact: []string{idAttr}, Comparator: ruleComparator(attrs), Threshold: threshold}
}

// resolveThreshold maps a MatchThreshold field to its effective value:
// the zero value means defaultMatchThreshold, ZeroThreshold means
// literally 0.
func resolveThreshold(t float64) float64 {
	switch t {
	case 0:
		return defaultMatchThreshold
	case ZeroThreshold:
		return 0
	}
	return t
}

// checkThreshold rejects an unresolved threshold field outside [0,1];
// the ZeroThreshold sentinel is in range.
func checkThreshold(name string, t float64) error {
	if t != ZeroThreshold && (t < 0 || t > 1) {
		return fmt.Errorf("core: %s threshold %v out of [0,1]", name, t)
	}
	return nil
}
