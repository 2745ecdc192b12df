package fusion

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/eval"
)

func onlineWorld(seed int64) *datagen.ClaimWorld {
	return datagen.BuildClaims(datagen.ClaimConfig{
		Seed: seed, NumItems: 200, NumValues: 5,
		NumSources: 14, MinAccuracy: 0.4, MaxAccuracy: 0.95,
	})
}

func TestOnlineMatchesOfflineAccuracy(t *testing.T) {
	cw := onlineWorld(3)
	on := Online{Accuracy: cw.TrueAccuracy}
	or, err := on.FuseOnline(cw.Claims)
	if err != nil {
		t.Fatal(err)
	}
	onAcc, _ := eval.FusionAccuracy(or.Values, cw.Claims)
	// Offline reference: weighted vote with the same weights over all
	// sources.
	off, err := WeightedVote{Weights: weightsFor(on, cw.Claims.Sources())}.Fuse(cw.Claims)
	if err != nil {
		t.Fatal(err)
	}
	offAcc, _ := eval.FusionAccuracy(off.Values, cw.Claims)
	if onAcc < offAcc-0.02 {
		t.Errorf("online accuracy %f must match offline %f", onAcc, offAcc)
	}
}

func TestOnlineProbesFewerSources(t *testing.T) {
	cw := onlineWorld(4)
	on := Online{Accuracy: cw.TrueAccuracy}
	or, err := on.FuseOnline(cw.Claims)
	if err != nil {
		t.Fatal(err)
	}
	total := len(cw.Claims.Sources())
	var sum float64
	n := 0
	for _, probes := range or.Probes {
		sum += float64(probes)
		n++
		if probes > total {
			t.Fatalf("probes %d exceeds source count %d", probes, total)
		}
	}
	if n == 0 {
		t.Fatal("no items finalised")
	}
	mean := sum / float64(n)
	if mean >= float64(total)*0.9 {
		t.Errorf("mean probes %.2f of %d sources; early termination never fired", mean, total)
	}
}

func TestOnlineAnytimeCurveImproves(t *testing.T) {
	cw := onlineWorld(5)
	on := Online{Accuracy: cw.TrueAccuracy}
	accAt := func(k int) float64 {
		res, err := on.FuseWithPrefix(cw.Claims, k)
		if err != nil {
			t.Fatal(err)
		}
		acc, _ := eval.FusionAccuracy(res.Values, cw.Claims)
		return acc
	}
	a2, a6, aAll := accAt(2), accAt(6), accAt(14)
	if a6 < a2-0.05 {
		t.Errorf("anytime curve should improve: k=2 %f, k=6 %f", a2, a6)
	}
	if aAll < 0.85 {
		t.Errorf("full-prefix accuracy = %f", aAll)
	}
}

func TestOnlineEmptyAndName(t *testing.T) {
	on := Online{}
	res, err := on.Fuse(data.NewClaimSet())
	if err != nil || len(res.Values) != 0 {
		t.Errorf("empty claims: %v %v", res.Values, err)
	}
	if on.Name() != "online" {
		t.Error("name")
	}
}

// TestOnlineCancelled pins that every Online entry point honours Ctx —
// FuseWithPrefix used to drop it on the way to its WeightedVote, so a
// cancelled prefix sweep ran to completion.
func TestOnlineCancelled(t *testing.T) {
	cw := onlineWorld(6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	on := Online{Accuracy: cw.TrueAccuracy, Workers: 2, Ctx: ctx}
	_, fuseErr := on.Fuse(cw.Claims)
	_, onlineErr := on.FuseOnline(cw.Claims)
	_, prefixErr := on.FuseWithPrefix(cw.Claims, 5)
	for name, err := range map[string]error{"Fuse": fuseErr, "FuseOnline": onlineErr, "FuseWithPrefix": prefixErr} {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s under a cancelled context = %v, want context.Canceled", name, err)
		}
	}
}

// TestOnlineNegativeWeightTermination is the regression for the
// unsound early-termination bound: a clamped low-accuracy source has a
// *negative* vote weight (N=10, a=0.05 → ln(0.526) < 0), and the old
// signed suffix sum let the loop finalise before consulting it — on a
// value that source's own claim overturns.
func TestOnlineNegativeWeightTermination(t *testing.T) {
	cs := data.NewClaimSet()
	it := data.Item{Entity: "e", Attr: "a"}
	cs.Add(data.Claim{Item: it, Source: "s1", Value: data.String("A")})
	cs.Add(data.Claim{Item: it, Source: "s2", Value: data.String("B")})
	cs.Add(data.Claim{Item: it, Source: "s3", Value: data.String("A")})
	on := Online{Accuracy: map[string]float64{"s1": 0.5, "s2": 0.4, "s3": 0.05}}

	// Probe order s1 (+2.303, A), s2 (+1.897, B), s3 (−0.642, A).
	// After s2 the lead margin is 0.406 — above the signed remaining
	// weight (−0.642) the old bound used, but below the 0.642 the
	// negative-weight s3 can strip from the leader: its claim drops A
	// to 1.661, under B's 1.897. B must win, after all three probes.
	or, err := on.FuseOnline(cs)
	if err != nil {
		t.Fatal(err)
	}
	if got := or.Values[it]; got.Str != "B" {
		t.Errorf("fused value = %v, want B (negative-weight source must be consulted)", got)
	}
	if or.Probes[it] != 3 {
		t.Errorf("probes = %d, want 3", or.Probes[it])
	}
}

func TestOnlineNSemantics(t *testing.T) {
	// N = 1 is a legitimate value (plain log-odds), not "unset": the old
	// code silently replaced any N <= 1 with 10.
	on1 := Online{N: 1, Accuracy: map[string]float64{"s": 0.8}}
	if w := on1.weightOf("s"); math.Abs(w-math.Log(4)) > 1e-12 {
		t.Errorf("N=1 weight = %v, want ln(4)=%v", w, math.Log(4))
	}
	// Only N == 0 means "unset" and takes the default 10.
	on0 := Online{Accuracy: map[string]float64{"s": 0.8}}
	if w := on0.weightOf("s"); math.Abs(w-math.Log(40)) > 1e-12 {
		t.Errorf("N=0 weight = %v, want ln(40)=%v", w, math.Log(40))
	}
	// Negative N is rejected on every entry point.
	if _, err := (Online{N: -1}).Fuse(data.NewClaimSet()); err == nil {
		t.Error("Fuse accepted negative N")
	}
	if _, err := (Online{N: -1}).FuseOnline(data.NewClaimSet()); err == nil {
		t.Error("FuseOnline accepted negative N")
	}
	if _, err := (Online{N: -1}).FuseWithPrefix(data.NewClaimSet(), 1); err == nil {
		t.Error("FuseWithPrefix accepted negative N")
	}
}

// TestFuseWithPrefixMatchesSubset pins the zero-weight prefix vote to
// the vote over a copy of the prefix's claims, for every prefix length,
// on the LCG workload and on an E15-shaped claim world.
func TestFuseWithPrefixMatchesSubset(t *testing.T) {
	e15 := datagen.BuildClaims(datagen.ClaimConfig{
		Seed: 42, NumItems: 250, NumValues: 5,
		NumSources: 16, MinAccuracy: 0.4, MaxAccuracy: 0.95,
	})
	for name, in := range map[string]struct {
		cs  *data.ClaimSet
		acc map[string]float64
	}{
		"det": {detClaims(60, 12, 42), map[string]float64{"s00": 0.9, "s03": 0.02, "s05": 0.6}},
		"e15": {e15.Claims, e15.TrueAccuracy},
	} {
		for k := 0; k <= len(in.cs.Sources())+1; k++ {
			want, err := refFuseWithPrefix(Online{Accuracy: in.acc, Workers: 1}, in.cs, k)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range workerCounts {
				got, err := Online{Accuracy: in.acc, Workers: w}.FuseWithPrefix(in.cs, k)
				if err != nil {
					t.Fatal(err)
				}
				if diff, ok := sameBits(want, got); !ok {
					t.Errorf("%s k=%d workers=%d: %s", name, k, w, diff)
				}
			}
		}
	}
}

// TestOnlineProbesCountConsulted pins the probe statistic: an item that
// never early-terminates reports the number of sources consulted
// (len(order)), even when trailing sources hold no claim for it.
func TestOnlineProbesCountConsulted(t *testing.T) {
	cs := data.NewClaimSet()
	it := data.Item{Entity: "e", Attr: "a"}
	other := data.Item{Entity: "e2", Attr: "a"}
	cs.Add(data.Claim{Item: it, Source: "s1", Value: data.String("A")})
	cs.Add(data.Claim{Item: it, Source: "s2", Value: data.String("B")})
	cs.Add(data.Claim{Item: other, Source: "s3", Value: data.String("C")})
	on := Online{Accuracy: map[string]float64{"s1": 0.7, "s2": 0.7, "s3": 0.7}}

	// s1 and s2 tie on conflicting values, so "e"/"a" can never finalise
	// early; s3 is consulted (it holds no claim for the item) and the
	// loop falls through. The old counter reported 2 — the last claiming
	// source — instead of the 3 sources consulted.
	or, err := on.FuseOnline(cs)
	if err != nil {
		t.Fatal(err)
	}
	if or.Probes[it] != 3 {
		t.Errorf("probes = %d, want 3 (all sources consulted)", or.Probes[it])
	}
	if or.Probes[other] != 3 {
		t.Errorf("probes(other) = %d, want 3", or.Probes[other])
	}
}

func TestACCUSIMMergesNearNumericValues(t *testing.T) {
	// 2 sources claim 100.0, 2 claim 100.5 (same underlying truth,
	// jittered), 3 claim 250 (wrong). Plain vote/ACCU sees 2-2-3 and
	// picks 250; AccuSim lets the two near values reinforce each other.
	cs := data.NewClaimSet()
	it := data.Item{Entity: "e", Attr: "weight"}
	add := func(src string, v float64) {
		cs.Add(data.Claim{Item: it, Source: src, Value: data.Number(v)})
	}
	add("s1", 100.0)
	add("s2", 100.0)
	add("s3", 100.5)
	add("s4", 100.5)
	add("s5", 250)
	add("s6", 250)
	add("s7", 250)
	cs.SetTruth(it, data.Number(100.0))

	plain, err := ACCU{}.Fuse(cs)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Values[it].Num != 250 {
		t.Fatalf("plain accu should be fooled by the 3-way block, got %v", plain.Values[it])
	}

	// Relative-tolerance similarity: values within 2% are near-certainly
	// the same underlying quantity, so they lend (almost) full support.
	relSim := func(a, b data.Value) float64 {
		if a.Kind != data.KindNumber || b.Kind != data.KindNumber {
			return 0
		}
		diff := a.Num - b.Num
		if diff < 0 {
			diff = -diff
		}
		denom := a.Num
		if b.Num > denom {
			denom = b.Num
		}
		if denom == 0 {
			return 1
		}
		rel := diff / denom
		if rel > 0.02 {
			return 0
		}
		return 1 - rel/0.02
	}
	sim := ACCU{Similarity: relSim, SimInfluence: 1}
	if sim.Name() != "accusim" {
		t.Error("name")
	}
	res, err := sim.Fuse(cs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[it].Num != 100.0 && res.Values[it].Num != 100.5 {
		t.Errorf("accusim should pick the reinforced cluster, got %v", res.Values[it])
	}
}

func TestACCUSIMNeutralWithoutSimilarPairs(t *testing.T) {
	cw := onlineWorld(6)
	plain, err := ACCU{}.Fuse(cw.Claims)
	if err != nil {
		t.Fatal(err)
	}
	zeroSim := ACCU{Similarity: func(a, b data.Value) float64 { return 0 }}
	res, err := zeroSim.Fuse(cw.Claims)
	if err != nil {
		t.Fatal(err)
	}
	pAcc, _ := eval.FusionAccuracy(plain.Values, cw.Claims)
	sAcc, _ := eval.FusionAccuracy(res.Values, cw.Claims)
	if diff := pAcc - sAcc; diff > 0.01 || diff < -0.01 {
		t.Errorf("zero similarity must reduce to plain accu: %f vs %f", pAcc, sAcc)
	}
}
