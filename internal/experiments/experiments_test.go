package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

const seed = 42

// run runs one experiment through the registry at its committed
// configuration; see runOpts.
func run[R any](t *testing.T, id string) (*Table, R) {
	t.Helper()
	return runOpts[R](t, id, Opts{})
}

// runOpts runs one experiment through the registry and makes the checks
// every entry owes: no error, a table carrying the entry's ID with at
// least one row and the ID in its rendering, and a result of the
// experiment's own type.
func runOpts[R any](t *testing.T, id string, o Opts) (*Table, R) {
	t.Helper()
	tab, res, err := Run(id, seed, o)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if tab.ID != id || len(tab.Rows) == 0 {
		t.Errorf("%s: table %q has %d rows", id, tab.ID, len(tab.Rows))
	}
	if !strings.Contains(tab.String(), id) {
		t.Errorf("%s: render missing ID", id)
	}
	r, ok := res.(R)
	if !ok {
		t.Fatalf("%s: result is %T, want %T", id, res, r)
	}
	return tab, r
}

func TestE1CopyAwareFusionHolds(t *testing.T) {
	tab, res := run[*E1Result](t, "E1")
	if len(tab.Rows) != len(res.Fracs) {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	noCopy := res.Accuracy[0]
	heavy := res.Accuracy[1.0]
	// With no copiers all methods are close.
	if diff := noCopy["accucopy"] - noCopy["accu"]; diff > 0.08 || diff < -0.08 {
		t.Errorf("no-copy regime: accucopy %f vs accu %f should be close", noCopy["accucopy"], noCopy["accu"])
	}
	// Under heavy copying, accucopy must beat vote clearly.
	if heavy["accucopy"] <= heavy["vote"] {
		t.Errorf("heavy copying: accucopy %f must beat vote %f", heavy["accucopy"], heavy["vote"])
	}
	// Vote must degrade from the no-copy regime.
	if heavy["vote"] >= noCopy["vote"] {
		t.Errorf("vote should degrade with copiers: %f -> %f", noCopy["vote"], heavy["vote"])
	}
	// ACCUCOPY holds accuracy: within 0.1 of its own no-copy level.
	if heavy["accucopy"] < noCopy["accucopy"]-0.1 {
		t.Errorf("accucopy collapsed under copying: %f -> %f", noCopy["accucopy"], heavy["accucopy"])
	}
}

func TestE2Converges(t *testing.T) {
	_, res := run[*E2Result](t, "E2")
	if len(res.Accuracy) < 2 || len(res.Accuracy) > 20 {
		t.Fatalf("iterations = %d", len(res.Accuracy))
	}
	first := res.Accuracy[0]
	last := res.Accuracy[len(res.Accuracy)-1]
	if last < first-0.02 {
		t.Errorf("accuracy degraded over EM: %f -> %f", first, last)
	}
	// Source-accuracy estimation error must not meaningfully worsen
	// from start to end (it typically converges within one iteration on
	// clean mixtures, so allow sub-1% jitter).
	if res.MAE[len(res.MAE)-1] > res.MAE[0]+0.01 {
		t.Errorf("MAE worsened: %f -> %f", res.MAE[0], res.MAE[len(res.MAE)-1])
	}
}

func TestE3BlockingTradeoffs(t *testing.T) {
	_, res := run[*E3Result](t, "E3")
	q := res.Quality
	// q-gram and token blocking must recall more than exact blocking.
	if q["qgram3(title)"].PairCompleteness <= q["exact(title)"].PairCompleteness {
		t.Error("qgram must beat exact on PC")
	}
	if q["token(title)"].PairCompleteness <= q["exact(title)"].PairCompleteness {
		t.Error("token must beat exact on PC")
	}
	// Wider SN windows: PC non-decreasing, RR non-increasing.
	if q["sn(w=9)"].PairCompleteness < q["sn(w=3)"].PairCompleteness {
		t.Error("wider window must not lose PC")
	}
	if q["sn(w=9)"].ReductionRatio > q["sn(w=3)"].ReductionRatio {
		t.Error("wider window must not gain RR")
	}
	// Key-per-record methods keep a high reduction ratio; token and
	// q-gram blocking legitimately trade RR away for completeness on
	// titles that share category words.
	for _, name := range []string{"exact(title)", "prefix3(title)", "prefix5(title)", "sn(w=3)", "sn(w=5)", "sn(w=9)"} {
		if q[name].ReductionRatio < 0.5 {
			t.Errorf("%s RR = %f, want >= 0.5", name, q[name].ReductionRatio)
		}
	}
}

func TestE4MetaBlockingCutsComparisons(t *testing.T) {
	_, res := run[*E4Result](t, "E4")
	base := float64(res.BaselineComparisons)
	for key, q := range res.Meta {
		if float64(q.Candidates) > 0.6*base {
			t.Errorf("%s kept %d of %d comparisons, want < 60%%", key, q.Candidates, res.BaselineComparisons)
		}
	}
	// The ECBS+WEP configuration must retain most pair completeness.
	if got := res.Meta["ecbs+wep"].PairCompleteness; got < 0.75*res.BaselinePC {
		t.Errorf("ecbs+wep PC = %f, baseline %f", got, res.BaselinePC)
	}
}

func TestE5MatchersDegradeWithDirt(t *testing.T) {
	_, res := run[*E5Result](t, "E5")
	// The identifier rule is the most robust matcher at every level.
	for dirt := 1; dirt <= 3; dirt++ {
		f1 := res.F1[dirt]
		if f1["rule(id)"] < f1["threshold"]-0.05 {
			t.Errorf("dirt %d: rule %f should not trail threshold %f badly", dirt, f1["rule(id)"], f1["threshold"])
		}
	}
	// Similarity matchers must degrade from dirt 1 to dirt 3.
	if res.F1[3]["threshold"] > res.F1[1]["threshold"] {
		t.Errorf("threshold matcher should degrade with dirt: %f -> %f",
			res.F1[1]["threshold"], res.F1[3]["threshold"])
	}
}

func TestE6ClusteringTradeoffs(t *testing.T) {
	_, res := run[*E6Result](t, "E6")
	cc := res.PRF["components"]
	for _, name := range []string{"center", "correlation"} {
		if res.PRF[name].Precision < cc.Precision {
			t.Errorf("%s precision %f must be >= components %f", name, res.PRF[name].Precision, cc.Precision)
		}
	}
	if cc.Recall < res.PRF["center"].Recall {
		t.Error("components must have the highest recall")
	}
}

func TestE7IncrementalStaysFlat(t *testing.T) {
	_, res := run[*E7Result](t, "E7")
	if len(res.BatchSizes) < 3 {
		t.Fatalf("batches = %d", len(res.BatchSizes))
	}
	// Shape: the incremental per-record cost stays roughly flat as the
	// corpus grows, and processing the whole stream incrementally is
	// cheaper than re-running full linkage at every checkpoint — the
	// batch path redoes all prior work each time, so its cumulative cost
	// grows quadratically while incremental stays linear.
	last := len(res.BatchSizes) - 1
	if res.IncrementalPerRec[last] > 5*res.IncrementalPerRec[0] {
		t.Errorf("incremental per-record cost should stay flat: %v -> %v",
			res.IncrementalPerRec[0], res.IncrementalPerRec[last])
	}
	if res.CumulativeIncremental > res.CumulativeBatch {
		t.Errorf("incremental stream total %v must beat batch-relink-at-every-checkpoint total %v",
			res.CumulativeIncremental, res.CumulativeBatch)
	}
	if res.FinalIncrementalF1 < 0.5 {
		t.Errorf("incremental linkage F1 = %f", res.FinalIncrementalF1)
	}
}

func TestE8LinkageEvidenceHelps(t *testing.T) {
	_, res := run[*E8Result](t, "E8")
	// At the largest source count, linkage-evidence alignment must be at
	// least as good as name+instance alignment.
	last := len(res.Sources) - 1
	if res.LinkageF1[last] < res.NameF1[last]-0.02 {
		t.Errorf("with %d sources: linkage %f vs name %f", res.Sources[last], res.LinkageF1[last], res.NameF1[last])
	}
	if res.LinkageF1[last] < 0.5 {
		t.Errorf("alignment F1 = %f at %d sources", res.LinkageF1[last], res.Sources[last])
	}
}

func TestE9ParallelSpeedsUp(t *testing.T) {
	_, res := run[*E9Result](t, "E9")
	if runtime.NumCPU() >= 4 {
		// 4 workers must beat 1 worker (generous margin for CI noise).
		if res.Throughput[2] < res.Throughput[0]*1.2 {
			t.Errorf("4 workers (%f) should beat 1 worker (%f)", res.Throughput[2], res.Throughput[0])
		}
		return
	}
	// Single-core machine: no speedup is physically possible; assert
	// only that extra workers do not badly regress throughput.
	if res.Throughput[2] < res.Throughput[0]*0.5 {
		t.Errorf("4 workers (%f) badly regress 1 worker (%f) on a single core", res.Throughput[2], res.Throughput[0])
	}
}

func TestE10LessIsMore(t *testing.T) {
	_, res := run[*E10Result](t, "E10")
	if res.BestEarly <= res.AllQ {
		t.Errorf("best early accuracy %f must exceed all-sources %f", res.BestEarly, res.AllQ)
	}
	if len(res.Greedy.Sources) >= len(res.Curve) {
		t.Error("greedy must stop before integrating everything")
	}
	if res.Greedy.Quality < res.AllQ {
		t.Errorf("greedy quality %f must be >= all-sources %f", res.Greedy.Quality, res.AllQ)
	}
}

func TestE11DomainRegimes(t *testing.T) {
	_, res := run[*E11Result](t, "E11")
	spread := func(domain string) float64 {
		min, max := 2.0, -1.0
		for _, acc := range res.Accuracy[domain] {
			if acc < min {
				min = acc
			}
			if acc > max {
				max = acc
			}
		}
		return max - min
	}
	heavy := spread("stock-like (heavy copying)")
	indep := spread("flight-like (independent)")
	if heavy <= indep {
		t.Errorf("method spread under copying (%f) must exceed independent regime (%f)", heavy, indep)
	}
}

func TestE12TemporalShape(t *testing.T) {
	_, res := run[*E12Result](t, "E12")
	if res.EvolvingTemporalF1 <= res.EvolvingStaticF1 {
		t.Errorf("evolving: temporal %f must beat static %f", res.EvolvingTemporalF1, res.EvolvingStaticF1)
	}
	if res.StableTemporalF1 < res.StableStaticF1-0.05 {
		t.Errorf("stable: temporal %f must not trail static %f", res.StableTemporalF1, res.StableStaticF1)
	}
}

func TestE13EndToEnd(t *testing.T) {
	_, res := run[*E13Result](t, "E13")
	if res.LinkageF1 < 0.75 {
		t.Errorf("end-to-end linkage F1 = %f", res.LinkageF1)
	}
	if res.FusedItems == 0 {
		t.Error("no fused items")
	}
}

func TestE14OrderingAblation(t *testing.T) {
	_, res := run[*E14Result](t, "E14")
	if res.LinkageFirstAlignF1 < res.SchemaFirstAlignF1 {
		t.Errorf("linkage-first alignment %f must be >= schema-first %f",
			res.LinkageFirstAlignF1, res.SchemaFirstAlignF1)
	}
	if res.LinkageFirstLinkF1 < 0.8 {
		t.Errorf("linkage-first linkage F1 = %f", res.LinkageFirstLinkF1)
	}
}

// TestRunnerKnowsAllExperiments pins the registry's shape. Every entry
// but E24 is run by its own TestE* at the registry's options; E24's
// test runs a smaller sweep, so its committed configuration runs here.
func TestRunnerKnowsAllExperiments(t *testing.T) {
	all := All()
	if len(all) != 28 {
		t.Fatalf("%d experiments, want 28", len(all))
	}
	for i, e := range all {
		if want := fmt.Sprintf("E%d", i+1); e.ID != want {
			t.Errorf("entry %d is %s, want %s", i, e.ID, want)
		}
	}
	if _, _, err := Run("E99", seed, Opts{}); err == nil {
		t.Error("unknown experiment must error")
	}
	run[*E24Result](t, "E24")
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID: "EX", Title: "demo",
		Columns: []string{"a", "long-column"},
		Rows:    [][]string{{"x", "1"}, {"longer-cell", "2"}},
		Notes:   "note text",
	}
	out := tab.String()
	for _, want := range []string{"EX", "demo", "long-column", "longer-cell", "note text"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
