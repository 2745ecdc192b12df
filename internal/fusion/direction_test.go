package fusion

import (
	"reflect"
	"testing"

	"repro/internal/data"
	"repro/internal/datagen"
)

func TestInferDirectionsOnGeneratedCopiers(t *testing.T) {
	// Copiers here have partial coverage of the target's items plus an
	// independent remainder drawn at their own (lower-quality) accuracy,
	// so coverage and accuracy signals both point at the original.
	cw := datagen.BuildClaims(datagen.ClaimConfig{
		Seed: 61, NumItems: 300, NumValues: 8,
		NumSources: 6, MinAccuracy: 0.85, MaxAccuracy: 0.95,
		NumCopiers: 3, CopyRate: 0.9, CopierSpread: 3,
		Coverage:          0.6,
		CopierMinAccuracy: 0.45, CopierMaxAccuracy: 0.6,
	})
	res, copies, err := (ACCUCOPY{}).CopyProbabilities(cw.Claims)
	if err != nil {
		t.Fatal(err)
	}
	directed := InferDirections(cw.Claims, copies, res, res.SourceAccuracy, 0.5)
	if len(directed) == 0 {
		t.Fatal("no directed edges inferred")
	}
	// Score direction accuracy on the true copier→target edges.
	correct, total := 0, 0
	for _, dc := range directed {
		target, isTrueEdge := cw.CopiesFrom[dc.From]
		reverse, isReversed := cw.CopiesFrom[dc.To]
		switch {
		case isTrueEdge && target == dc.To:
			correct++
			total++
		case isReversed && reverse == dc.From:
			total++ // direction flipped: counted wrong
		}
	}
	if total == 0 {
		t.Fatal("no true copy edges among directed output")
	}
	if frac := float64(correct) / float64(total); frac < 0.6 {
		t.Errorf("direction accuracy = %d/%d, want >= 0.6", correct, total)
	}
}

func TestInferDirectionsThreshold(t *testing.T) {
	cs := data.NewClaimSet()
	cs.Add(data.Claim{Item: data.Item{Entity: "e", Attr: "v"}, Source: "a", Value: data.String("x")})
	cs.Add(data.Claim{Item: data.Item{Entity: "e", Attr: "v"}, Source: "b", Value: data.String("x")})
	copies := map[SourcePair]float64{NewSourcePair("a", "b"): 0.2}
	res := &Result{Values: map[data.Item]data.Value{}}
	if got := InferDirections(cs, copies, res, nil, 0.5); len(got) != 0 {
		t.Errorf("below-threshold pairs must be skipped, got %v", got)
	}
}

func TestInferDirectionsCoverageSignal(t *testing.T) {
	// Hand-built: "orig" covers 10 items correctly; "cop" covers 4 of
	// them identically and nothing else. Direction must be cop → orig.
	cs := data.NewClaimSet()
	res := &Result{Values: map[data.Item]data.Value{}}
	for i := 0; i < 10; i++ {
		it := data.Item{Entity: itoa(i), Attr: "v"}
		v := data.String("val" + itoa(i))
		cs.Add(data.Claim{Item: it, Source: "orig", Value: v})
		if i < 4 {
			cs.Add(data.Claim{Item: it, Source: "cop", Value: v})
		}
		res.Values[it] = v
	}
	copies := map[SourcePair]float64{NewSourcePair("cop", "orig"): 0.99}
	directed := InferDirections(cs, copies, res, map[string]float64{"orig": 0.9, "cop": 0.9}, 0.5)
	if len(directed) != 1 {
		t.Fatalf("directed = %v", directed)
	}
	if directed[0].From != "cop" || directed[0].To != "orig" {
		t.Errorf("direction = %s -> %s, want cop -> orig", directed[0].From, directed[0].To)
	}
	if directed[0].CoverageSignal <= 0 {
		t.Errorf("coverage signal = %f, want positive toward orig", directed[0].CoverageSignal)
	}
}

// TestInferDirectionsMatchesReference pins the index-based direction
// inference to the map-based reference on copier worlds, with the copy
// posteriors and truth of the full AccuCopy loop and with ground truth.
func TestInferDirectionsMatchesReference(t *testing.T) {
	for _, seed := range []int64{61, 62} {
		cw := datagen.BuildClaims(datagen.ClaimConfig{
			Seed: seed, NumItems: 300, NumValues: 8,
			NumSources: 6, MinAccuracy: 0.85, MaxAccuracy: 0.95,
			NumCopiers: 3, CopyRate: 0.9, CopierSpread: 3, Coverage: 0.6,
			CopierMinAccuracy: 0.45, CopierMaxAccuracy: 0.6,
		})
		res, copies, err := (ACCUCOPY{}).CopyProbabilities(cw.Claims)
		if err != nil {
			t.Fatal(err)
		}
		truth := &Result{Values: map[data.Item]data.Value{}}
		for _, it := range cw.Items {
			truth.Values[it], _ = cw.Claims.Truth(it)
		}
		for _, tr := range []*Result{res, truth} {
			want := refInferDirections(cw.Claims, copies, tr, res.SourceAccuracy, 0.3)
			got := InferDirections(cw.Claims, copies, tr, res.SourceAccuracy, 0.3)
			if len(want) == 0 || !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d: directions\n%+v\nwant\n%+v", seed, got, want)
			}
		}
	}
	cs := detClaims(80, 10, 7) // duplicate claims: a source's last one counts
	truth, err := ACCU{}.Fuse(cs)
	if err != nil {
		t.Fatal(err)
	}
	copies := CopyDetector{}.Detect(cs, truth, truth.SourceAccuracy)
	want := refInferDirections(cs, copies, truth, truth.SourceAccuracy, 0.01)
	if got := InferDirections(cs, copies, truth, truth.SourceAccuracy, 0.01); len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("detClaims: directions\n%+v\nwant\n%+v", got, want)
	}
}
