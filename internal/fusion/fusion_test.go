package fusion

import (
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/eval"
)

func item(i string) data.Item { return data.Item{Entity: i, Attr: "v"} }

func claims(t *testing.T, rows [][3]string) *data.ClaimSet {
	t.Helper()
	cs := data.NewClaimSet()
	for _, r := range rows {
		cs.Add(data.Claim{Item: item(r[0]), Source: r[1], Value: data.String(r[2])})
	}
	return cs
}

func TestMajorityVote(t *testing.T) {
	cs := claims(t, [][3]string{
		{"e1", "s1", "x"}, {"e1", "s2", "x"}, {"e1", "s3", "y"},
		{"e2", "s1", "a"},
	})
	res, err := MajorityVote{}.Fuse(cs)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Values[item("e1")]; !got.Equal(data.String("x")) {
		t.Errorf("e1 = %v", got)
	}
	if got := res.Confidence[item("e1")]; math.Abs(got-2.0/3) > 1e-9 {
		t.Errorf("e1 confidence = %f", got)
	}
	if got := res.Values[item("e2")]; !got.Equal(data.String("a")) {
		t.Errorf("e2 = %v", got)
	}
}

func TestMajorityVoteTieDeterministic(t *testing.T) {
	cs := claims(t, [][3]string{{"e", "s1", "b"}, {"e", "s2", "a"}})
	r1, _ := MajorityVote{}.Fuse(cs)
	r2, _ := MajorityVote{}.Fuse(cs)
	if !r1.Values[item("e")].Equal(r2.Values[item("e")]) {
		t.Error("tie break must be deterministic")
	}
}

func TestWeightedVote(t *testing.T) {
	cs := claims(t, [][3]string{
		{"e", "trusted", "x"}, {"e", "s1", "y"}, {"e", "s2", "y"},
	})
	res, err := WeightedVote{Weights: map[string]float64{"trusted": 5}}.Fuse(cs)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Values[item("e")]; !got.Equal(data.String("x")) {
		t.Errorf("weighted vote = %v, want trusted source to win", got)
	}
}

// goodBadClaims: 3 accurate sources and 5 inaccurate ones that all make
// the same mistakes (the inaccurate block outvotes the accurate one).
func goodBadClaims(t *testing.T) (*data.ClaimSet, int) {
	t.Helper()
	cs := data.NewClaimSet()
	nItems := 40
	for i := 0; i < nItems; i++ {
		it := data.Item{Entity: itoa(i), Attr: "v"}
		truth := data.String("true-" + itoa(i))
		wrong := data.String("wrong-" + itoa(i))
		cs.SetTruth(it, truth)
		// Good sources: right on ~90% of items (wrong on i%10==0).
		for s := 0; s < 3; s++ {
			v := truth
			if (i+s)%10 == 0 {
				v = data.String("noise-" + itoa(i) + itoa(s))
			}
			cs.Add(data.Claim{Item: it, Source: "good" + itoa(s), Value: v})
		}
		// Bad sources: all claim the same wrong value on 60% of items.
		for s := 0; s < 5; s++ {
			v := truth
			if i%5 != 0 { // wrong on 80% of items
				v = wrong
			}
			cs.Add(data.Claim{Item: it, Source: "bad" + itoa(s), Value: v})
		}
	}
	return cs, nItems
}

func itoa(i int) string {
	if i < 0 {
		return "-" + itoa(-i)
	}
	if i < 10 {
		return string(rune('0' + i))
	}
	return itoa(i/10) + string(rune('0'+i%10))
}

func accuracyOf(t *testing.T, f Fuser, cs *data.ClaimSet) float64 {
	t.Helper()
	res, err := f.Fuse(cs)
	if err != nil {
		t.Fatal(err)
	}
	acc, n := eval.FusionAccuracy(res.Values, cs)
	if n == 0 {
		t.Fatal("no items evaluated")
	}
	return acc
}

func TestACCUBeatsVoteOnIndependentErrors(t *testing.T) {
	// Wide accuracy spread and a small false-value domain: bad sources
	// coincide on wrong values by chance often enough to mislead naive
	// voting, while accuracy-aware fusers learn to discount them.
	var vote, tf, accu float64
	seeds := []int64{1, 2, 3, 4, 5}
	for _, seed := range seeds {
		cw := datagen.BuildClaims(datagen.ClaimConfig{
			Seed: seed, NumItems: 300, NumValues: 3, NumSources: 12,
			MinAccuracy: 0.3, MaxAccuracy: 0.95,
		})
		vote += accuracyOf(t, MajorityVote{}, cw.Claims)
		tf += accuracyOf(t, TruthFinder{}, cw.Claims)
		accu += accuracyOf(t, ACCU{}, cw.Claims)
	}
	n := float64(len(seeds))
	vote, tf, accu = vote/n, tf/n, accu/n
	if accu <= vote {
		t.Errorf("accu (%f) must beat vote (%f) on average", accu, vote)
	}
	if tf < vote-0.01 {
		t.Errorf("truthfinder (%f) must be at least competitive with vote (%f)", tf, vote)
	}
	if accu < 0.85 {
		t.Errorf("accu mean accuracy = %f, want >= 0.85", accu)
	}
}

func TestACCUCOPYRecoversFromCollusion(t *testing.T) {
	// A perfectly colluding majority bloc defeats voting, TruthFinder
	// AND plain ACCU (all calibrate against the corrupted consensus);
	// only the copy-aware fuser discounts the bloc and recovers — the
	// tutorial's core Veracity argument.
	cs, _ := goodBadClaims(t)
	vote := accuracyOf(t, MajorityVote{}, cs)
	accu := accuracyOf(t, ACCU{}, cs)
	accucopy := accuracyOf(t, ACCUCOPY{}, cs)
	if vote > 0.3 {
		t.Errorf("vote accuracy = %f; the colluding bloc should sink it", vote)
	}
	if accu > 0.3 {
		t.Errorf("plain accu accuracy = %f; it cannot resist collusion", accu)
	}
	if accucopy < 0.9 {
		t.Errorf("accucopy accuracy = %f, want >= 0.9", accucopy)
	}
}

func TestACCUEstimatesSourceAccuracy(t *testing.T) {
	cw := datagen.BuildClaims(datagen.ClaimConfig{
		Seed: 5, NumItems: 300, NumSources: 10,
		MinAccuracy: 0.55, MaxAccuracy: 0.95,
	})
	res, err := ACCU{}.Fuse(cw.Claims)
	if err != nil {
		t.Fatal(err)
	}
	// Estimated accuracies must correlate with ground truth: check mean
	// absolute error and rank agreement on extremes.
	var mae float64
	n := 0
	bestSrc, worstSrc := "", ""
	bestAcc, worstAcc := -1.0, 2.0
	for s, trueAcc := range cw.TrueAccuracy {
		est, ok := res.SourceAccuracy[s]
		if !ok {
			t.Fatalf("no accuracy estimate for %s", s)
		}
		mae += math.Abs(est - trueAcc)
		n++
		if trueAcc > bestAcc {
			bestAcc, bestSrc = trueAcc, s
		}
		if trueAcc < worstAcc {
			worstAcc, worstSrc = trueAcc, s
		}
	}
	mae /= float64(n)
	if mae > 0.12 {
		t.Errorf("accuracy MAE = %f, want <= 0.12", mae)
	}
	if res.SourceAccuracy[bestSrc] <= res.SourceAccuracy[worstSrc] {
		t.Error("estimated accuracy must rank best source above worst")
	}
}

func TestACCUConvergence(t *testing.T) {
	cw := datagen.BuildClaims(datagen.ClaimConfig{Seed: 6, NumItems: 150, NumSources: 8})
	trace, err := ACCU{}.FuseTrace(cw.Claims)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) < 2 {
		t.Fatalf("trace too short: %d", len(trace))
	}
	first, _ := eval.FusionAccuracy(trace[0].Values, cw.Claims)
	last, _ := eval.FusionAccuracy(trace[len(trace)-1].Values, cw.Claims)
	if last < first-0.02 {
		t.Errorf("accuracy must not degrade over iterations: %f -> %f", first, last)
	}
	if trace[len(trace)-1].Iterations > 20 {
		t.Error("must converge within iteration cap")
	}
}

// TestACCUNSemantics pins ACCU's N to Online's rule: only 0 means unset,
// N = 1 (binary items) is honoured rather than replaced by the default,
// and a negative N is an error on Fuse, FuseTrace and through ACCUCOPY.
func TestACCUNSemantics(t *testing.T) {
	cs := detClaims(60, 12, 42)
	fuse := func(n float64) *Result {
		t.Helper()
		res, err := ACCU{N: n}.Fuse(cs)
		if err != nil {
			t.Fatalf("N=%v: %v", n, err)
		}
		return res
	}
	if diff, same := sameBits(fuse(10), fuse(0)); !same {
		t.Errorf("N=0 must fuse as the default N=10: %s", diff)
	}
	if _, same := sameBits(fuse(10), fuse(1)); same {
		t.Error("N=1 fuses exactly like N=10: it was replaced by the default")
	}
	bad := ACCU{N: -1}
	if _, err := bad.Fuse(cs); err == nil {
		t.Error("Fuse accepted N=-1")
	}
	if _, err := bad.FuseTrace(cs); err == nil {
		t.Error("FuseTrace accepted N=-1")
	}
	if _, err := (ACCUCOPY{Accu: bad}).Fuse(cs); err == nil {
		t.Error("ACCUCOPY accepted N=-1")
	}
}

func TestPOPACCU(t *testing.T) {
	cw := datagen.BuildClaims(datagen.ClaimConfig{
		Seed: 7, NumItems: 300, NumValues: 3, NumSources: 12,
		MinAccuracy: 0.3, MaxAccuracy: 0.95,
	})
	pop := accuracyOf(t, ACCU{Popularity: true}, cw.Claims)
	vote := accuracyOf(t, MajorityVote{}, cw.Claims)
	if pop < vote-0.02 {
		t.Errorf("popaccu (%f) must be at least competitive with vote (%f)", pop, vote)
	}
	if pop < 0.85 {
		t.Errorf("popaccu accuracy = %f, want >= 0.85", pop)
	}
	if (ACCU{Popularity: true}).Name() != "popaccu" {
		t.Error("name mismatch")
	}
}

func TestFusersHandleEmptyClaimSet(t *testing.T) {
	cs := data.NewClaimSet()
	for _, f := range []Fuser{MajorityVote{}, TruthFinder{}, ACCU{}, ACCUCOPY{}} {
		res, err := f.Fuse(cs)
		if err != nil {
			t.Errorf("%s: %v", f.Name(), err)
			continue
		}
		if len(res.Values) != 0 {
			t.Errorf("%s: values from empty claims", f.Name())
		}
	}
}

func TestFusersSingleClaim(t *testing.T) {
	cs := claims(t, [][3]string{{"e", "s", "only"}})
	for _, f := range []Fuser{MajorityVote{}, TruthFinder{}, ACCU{}, ACCUCOPY{}} {
		res, err := f.Fuse(cs)
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		if got := res.Values[item("e")]; !got.Equal(data.String("only")) {
			t.Errorf("%s: single claim = %v", f.Name(), got)
		}
	}
}
