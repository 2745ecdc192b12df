package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/fusion"
)

// TestStreamRuleIsPipelineRule pins what the stream's comments used to
// only promise: for the same settings the stream links by the batch
// pipeline's rule — same score, same decision, on every pair.
func TestStreamRuleIsPipelineRule(t *testing.T) {
	recs := testWeb(t, 2, 0.9).Dataset.Records()
	for _, tc := range []struct {
		name      string
		threshold float64
		attrs     []string
	}{
		{"defaults", 0, nil},
		{"zero threshold", ZeroThreshold, nil},
		{"explicit", 0.8, []string{"title", "brand"}},
	} {
		batch, err := New(Config{MatchThreshold: tc.threshold, MatchAttrs: tc.attrs}).buildMatcher(nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewStream(StreamConfig{MatchThreshold: tc.threshold, MatchAttrs: tc.attrs}, nil)
		if err != nil {
			t.Fatal(err)
		}
		idHits, accepted, rejected := 0, 0, 0
		for i, a := range recs {
			for _, b := range recs[i+1:] {
				bs, bok := batch.Match(a, b)
				ss, sok := s.matcher.Match(a, b)
				if bs != ss || bok != sok {
					t.Fatalf("%s: %s~%s: pipeline (%v, %v), stream (%v, %v)", tc.name, a.ID, b.ID, bs, bok, ss, sok)
				}
				switch pa, pb := a.Get("pid"), b.Get("pid"); {
				case !pa.IsNull() && pa.Key() == pb.Key():
					idHits++
					if bs != 1 || !bok {
						t.Fatalf("%s: identifier hit %s~%s scored (%v, %v)", tc.name, a.ID, b.ID, bs, bok)
					}
				case bok:
					accepted++
				default:
					rejected++
				}
			}
		}
		if idHits == 0 || accepted == 0 || (rejected == 0) != (tc.threshold == ZeroThreshold) {
			t.Errorf("%s: %d identifier hits, %d accepted, %d rejected: the web does not exercise the rule", tc.name, idHits, accepted, rejected)
		}
	}
}

// TestThresholdVerdictsShared feeds the same thresholds to both configs:
// one helper pair validates and resolves them, so the verdicts agree.
func TestThresholdVerdictsShared(t *testing.T) {
	for _, tc := range []struct {
		in, want float64
		bad      bool
	}{
		{in: 0, want: 0.6},
		{in: ZeroThreshold, want: 0},
		{in: 0.25, want: 0.25},
		{in: 1, want: 1},
		{in: -0.5, bad: true},
		{in: 1.5, bad: true},
	} {
		c, sc := Config{MatchThreshold: tc.in, AlignThreshold: tc.in}, StreamConfig{MatchThreshold: tc.in}
		if err := c.Validate(); (err != nil) != tc.bad {
			t.Errorf("Config threshold %v: Validate = %v, want error %v", tc.in, err, tc.bad)
		}
		if err := (Config{AlignThreshold: tc.in}).Validate(); (err != nil) != tc.bad {
			t.Errorf("Config align threshold %v: Validate = %v, want error %v", tc.in, err, tc.bad)
		}
		if err := sc.Validate(); (err != nil) != tc.bad {
			t.Errorf("StreamConfig threshold %v: Validate = %v, want error %v", tc.in, err, tc.bad)
		}
		if tc.bad {
			continue
		}
		c.defaults()
		sc.defaults()
		if c.MatchThreshold != tc.want || sc.MatchThreshold != tc.want {
			t.Errorf("threshold %v resolves to %v (batch) and %v (stream), want %v", tc.in, c.MatchThreshold, sc.MatchThreshold, tc.want)
		}
		if want := resolveThreshold(tc.in, 0.5); c.AlignThreshold != want {
			t.Errorf("align threshold %v resolves to %v, want %v", tc.in, c.AlignThreshold, want)
		}
		if !reflect.DeepEqual(c.IdentifierAttrs, sc.IdentifierAttrs) || !reflect.DeepEqual(c.MatchAttrs, sc.MatchAttrs) {
			t.Errorf("attribute defaults differ: batch %v/%v, stream %v/%v", c.IdentifierAttrs, c.MatchAttrs, sc.IdentifierAttrs, sc.MatchAttrs)
		}
	}
}

// TestEveryNamedFuser walks the fuser table: every name builds through
// the one door, fuses identically at any worker count and honours its
// context; Validate and the unknown-name error read the same table.
func TestEveryNamedFuser(t *testing.T) {
	claims := datagen.BuildClaims(datagen.ClaimConfig{Seed: 5, NumItems: 60, NumSources: 8, NumCopiers: 2}).Claims
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range FuserNames() {
		if err := (Config{Fuser: name}).Validate(); err != nil {
			t.Errorf("%s: Validate = %v", name, err)
		}
		var base *fusion.Result
		for _, workers := range []int{1, 2, 8} {
			f, err := BuildFuser(context.Background(), name, workers, nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			res, err := f.Fuse(claims)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if base == nil {
				base = res
			} else if !reflect.DeepEqual(res, base) {
				t.Errorf("%s: workers=%d result differs from workers=1", name, workers)
			}
		}
		if len(base.Values) == 0 {
			t.Errorf("%s: no fused values", name)
		}
		f, err := BuildFuser(cancelled, name, 2, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// "numeric" is the one sequential fuser: it takes no context.
		if _, err := f.Fuse(claims); name != "numeric" && !errors.Is(err, context.Canceled) {
			t.Errorf("%s under a cancelled context = %v, want context.Canceled", name, err)
		}
	}
	_, err := BuildFuser(context.Background(), "weighted", 0, nil)
	if !errors.Is(err, ErrUnknownFuser) || !strings.Contains(err.Error(), "accu, accucopy, numeric, popaccu, truthfinder, vote") {
		t.Errorf("unknown name = %v, want ErrUnknownFuser listing the table's names sorted", err)
	}
	if err := (Config{Fuser: "weighted"}).Validate(); !errors.Is(err, ErrUnknownFuser) {
		t.Errorf("Validate(weighted) = %v, want ErrUnknownFuser", err)
	}
}
