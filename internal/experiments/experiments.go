// Package experiments implements the reproduction harness: one function
// per experiment in DESIGN.md's index (E1–E28), each generating its
// workload, running the systems under test and returning a printable
// table plus structured results that the test suite asserts shape
// properties on. The registry (All, Run) is the one list of them that
// cmd/bdibench, the root-level benchmarks and the tests read.
package experiments

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/fusion"
)

// Table is a printable experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Notes)
	}
	return b.String()
}

// Opts carries the experiments' tunable configurations. The zero value
// runs every experiment at its committed configuration.
type Opts struct {
	E24 E24Opts
	E25 E25Opts
}

// Experiment is one registry entry: an ID and a run returning the
// printable table and the experiment's typed result (*E1Result for E1,
// and so on).
type Experiment struct {
	ID  string
	Run func(seed int64, o Opts) (*Table, any, error)
}

// entry registers an experiment that has no options.
func entry[R any](id string, run func(seed int64) (*Table, R, error)) Experiment {
	return Experiment{ID: id, Run: func(seed int64, _ Opts) (*Table, any, error) { return run(seed) }}
}

// registry lists the experiments in order. E1–E14 reproduce the
// surveyed result shapes; E15–E22 cover the extension features and
// ablations; E23 is the fault-injection chaos sweep; E24 the
// sharded/spilled blocking scale-out sweep; E25 the rank-fusion
// recall-vs-comparisons evaluation; E26 the concurrent-serving latency
// benchmark; E27 the streaming-vs-batch-relink velocity cost
// comparison; E28 the update/delete churn correctness and
// bounded-state evaluation.
var registry = []Experiment{
	entry("E1", E1), entry("E2", E2), entry("E3", E3), entry("E4", E4),
	entry("E5", E5), entry("E6", E6), entry("E7", E7), entry("E8", E8),
	entry("E9", E9), entry("E10", E10), entry("E11", E11), entry("E12", E12),
	entry("E13", E13), entry("E14", E14), entry("E15", E15), entry("E16", E16),
	entry("E17", E17), entry("E18", E18), entry("E19", E19), entry("E20", E20),
	entry("E21", E21), entry("E22", E22), entry("E23", E23),
	{ID: "E24", Run: func(seed int64, o Opts) (*Table, any, error) { return E24(seed, o.E24) }},
	{ID: "E25", Run: func(seed int64, o Opts) (*Table, any, error) { return E25(seed, o.E25) }},
	entry("E26", E26), entry("E27", E27), entry("E28", E28),
}

// All returns the registry in order.
func All() []Experiment { return slices.Clone(registry) }

// Run executes the experiment with the given ID.
func Run(id string, seed int64, o Opts) (*Table, any, error) {
	for _, e := range registry {
		if e.ID == id {
			return e.Run(seed, o)
		}
	}
	return nil, nil, fmt.Errorf("experiments: unknown experiment %q", id)
}

func f1(x float64) string { return fmt.Sprintf("%.1f", x) }
func f3(x float64) string { return fmt.Sprintf("%.3f", x) }
func f4(x float64) string { return fmt.Sprintf("%.4f", x) }
func d1(x int) string     { return fmt.Sprintf("%d", x) }

// fuserAccuracy runs a fuser over a claim set and returns truth-sample
// accuracy.
func fuserAccuracy(f fusion.Fuser, cs *data.ClaimSet) (float64, error) {
	res, err := f.Fuse(cs)
	if err != nil {
		return 0, err
	}
	acc, n := eval.FusionAccuracy(res.Values, cs)
	if n == 0 {
		return 0, fmt.Errorf("experiments: claim set has no truth sample")
	}
	return acc, nil
}

// standardFusers is the method line-up for fusion experiments.
func standardFusers() []fusion.Fuser {
	return []fusion.Fuser{
		fusion.MajorityVote{},
		fusion.TruthFinder{},
		fusion.ACCU{},
		fusion.ACCU{Popularity: true},
		fusion.ACCUCOPY{},
	}
}

// E1Result is the structured output of E1.
type E1Result struct {
	// Accuracy[copierFraction][fuserName] = truth-sample accuracy.
	Accuracy map[float64]map[string]float64
	Fracs    []float64
}

// E1 — fusion accuracy under copying: Vote vs TruthFinder vs ACCU vs
// POPACCU vs ACCUCOPY as the copier population grows (shape of Dong et
// al. VLDB'09).
func E1(seed int64) (*Table, *E1Result, error) {
	fracs := []float64{0, 0.25, 0.5, 0.75, 1.0} // copiers per independent source
	res := &E1Result{Accuracy: map[float64]map[string]float64{}, Fracs: fracs}
	const nIndep = 8
	tab := &Table{
		ID:      "E1",
		Title:   "fusion accuracy vs copier population",
		Columns: []string{"copiers/indep"},
	}
	for _, f := range standardFusers() {
		tab.Columns = append(tab.Columns, f.Name())
	}
	for _, frac := range fracs {
		cw := datagen.BuildClaims(datagen.ClaimConfig{
			Seed: seed + int64(frac*100), NumItems: 200, NumValues: 8,
			NumSources: nIndep, MinAccuracy: 0.55, MaxAccuracy: 0.9,
			NumCopiers: int(frac * nIndep), CopyRate: 0.95, CopierSpread: 1,
		})
		row := []string{f3(frac)}
		res.Accuracy[frac] = map[string]float64{}
		for _, f := range standardFusers() {
			acc, err := fuserAccuracy(f, cw.Claims)
			if err != nil {
				return nil, nil, err
			}
			res.Accuracy[frac][f.Name()] = acc
			row = append(row, f3(acc))
		}
		tab.Rows = append(tab.Rows, row)
	}
	tab.Notes = "copy-aware fusion should hold accuracy as copiers grow; naive voting should degrade"
	return tab, res, nil
}

// E2Result is the structured output of E2. FuseSeq/FusePar time the
// full ACCU EM on one worker vs the default pool (same byte-identical
// result either way).
type E2Result struct {
	Iteration []int
	Accuracy  []float64
	MAE       []float64 // source-accuracy mean absolute error per iter

	FuseSeq     time.Duration
	FusePar     time.Duration
	FuseSpeedup float64
}

// E2 — ACCU EM convergence: accuracy and source-accuracy error per
// iteration, plus sequential-vs-parallel timing of the fusion engine.
func E2(seed int64) (*Table, *E2Result, error) {
	cw := datagen.BuildClaims(datagen.ClaimConfig{
		Seed: seed, NumItems: 250, NumValues: 5,
		NumSources: 12, MinAccuracy: 0.4, MaxAccuracy: 0.95,
	})
	trace, err := fusion.ACCU{}.FuseTrace(cw.Claims)
	if err != nil {
		return nil, nil, err
	}
	res := &E2Result{}
	res.FuseSeq, res.FusePar, res.FuseSpeedup, err = timeFuse(fusion.ACCU{Workers: 1}, fusion.ACCU{}, cw.Claims)
	if err != nil {
		return nil, nil, err
	}
	tab := &Table{
		ID: "E2", Title: "ACCU convergence over EM iterations",
		Columns: []string{"iter", "accuracy", "src-acc MAE"},
	}
	for i, step := range trace {
		acc, _ := eval.FusionAccuracy(step.Values, cw.Claims)
		var mae float64
		n := 0
		for s, trueAcc := range cw.TrueAccuracy {
			if est, ok := step.SourceAccuracy[s]; ok {
				mae += abs(est - trueAcc)
				n++
			}
		}
		if n > 0 {
			mae /= float64(n)
		}
		res.Iteration = append(res.Iteration, i+1)
		res.Accuracy = append(res.Accuracy, acc)
		res.MAE = append(res.MAE, mae)
		tab.Rows = append(tab.Rows, []string{d1(i + 1), f4(acc), f4(mae)})
	}
	tab.Notes = fmt.Sprintf(
		"accuracy should be non-decreasing and converge within ~10 iterations; "+
			"fuse time %v (1 worker) vs %v (parallel engine), %.2fx",
		res.FuseSeq, res.FusePar, res.FuseSpeedup)
	return tab, res, nil
}

// timeFuse times a sequential and a parallel configuration of the same
// fuser on the same claims (best of 3 runs each) and returns both
// durations plus the speedup.
func timeFuse(seq, par fusion.Fuser, cs *data.ClaimSet) (ts, tp time.Duration, speedup float64, err error) {
	best := func(f fusion.Fuser) (time.Duration, error) {
		var b time.Duration
		for r := 0; r < 3; r++ {
			start := time.Now()
			if _, ferr := f.Fuse(cs); ferr != nil {
				return 0, ferr
			}
			if el := time.Since(start); r == 0 || el < b {
				b = el
			}
		}
		return b, nil
	}
	if ts, err = best(seq); err != nil {
		return
	}
	if tp, err = best(par); err != nil {
		return
	}
	if tp > 0 {
		speedup = float64(ts) / float64(tp)
	}
	return
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
