package fusion

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/datagen"
)

// sameOnline compares two online results on every field, confidences by
// their bits and values by their full spelling (two Values can share a
// Key(), so key equality would not pin which claimant was reported).
func sameOnline(want, got *OnlineResult) error {
	if !reflect.DeepEqual(want.Order, got.Order) {
		return fmt.Errorf("order %v, want %v", got.Order, want.Order)
	}
	if !reflect.DeepEqual(want.SourceAccuracy, got.SourceAccuracy) {
		return fmt.Errorf("source accuracy %v, want %v", got.SourceAccuracy, want.SourceAccuracy)
	}
	if !reflect.DeepEqual(want.Probes, got.Probes) {
		for it, p := range want.Probes {
			if got.Probes[it] != p {
				return fmt.Errorf("probes[%v] = %d, want %d", it, got.Probes[it], p)
			}
		}
		return fmt.Errorf("probes cover %d items, want %d", len(got.Probes), len(want.Probes))
	}
	if len(want.Values) != len(got.Values) || len(want.Confidence) != len(got.Confidence) {
		return fmt.Errorf("%d values and %d confidences, want %d and %d",
			len(got.Values), len(got.Confidence), len(want.Values), len(want.Confidence))
	}
	for it, v := range want.Values {
		if g, ok := got.Values[it]; !ok || g != v {
			return fmt.Errorf("value[%v] = %#v, want %#v", it, g, v)
		}
		if w, g := want.Confidence[it], got.Confidence[it]; math.Float64bits(w) != math.Float64bits(g) {
			return fmt.Errorf("confidence[%v] = %v (%#x), want %v (%#x)", it, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
	if want.Iterations != got.Iterations {
		return fmt.Errorf("iterations %d, want %d", got.Iterations, want.Iterations)
	}
	return nil
}

// agreementFeedback is the stream's accuracy update: every source's
// estimate becomes its Laplace-smoothed agreement with the fused values.
func agreementFeedback(acc map[string]float64, cs *data.ClaimSet, res *OnlineResult) {
	for _, src := range cs.Sources() {
		agree, total := 0, 0
		for _, c := range cs.SourceClaims(src) {
			v, ok := res.Values[c.Item]
			if !ok {
				continue
			}
			total++
			if v.Key() == c.Value.Key() {
				agree++
			}
		}
		if total > 0 {
			acc[src] = (float64(agree) + 1) / (float64(total) + 2)
		}
	}
}

// webClaims is the stream's shape of claim set: the records of a dirty
// multi-source web grouped into entities, one item per entity attribute
// — about two claims an item out of many sources, and a source with two
// records in one entity claiming its items twice.
func webClaims(seed int64) *data.ClaimSet {
	return data.ClaimsFromClusters(dirtyWeb(seed, 120))
}

// dirtyWeb generates a 20-source dirty web of the given number of
// entities and clusters its records with pairs of entities folded
// together, so sources conflict and claim twice as they do under
// imperfect linkage.
func dirtyWeb(seed int64, entities int) (*data.Dataset, data.Clustering, []string) {
	w := datagen.NewWorld(datagen.WorldConfig{Seed: seed, NumEntities: entities})
	d := datagen.BuildWeb(w, datagen.SourceConfig{
		Seed: seed + 1, NumSources: 20, DirtLevel: 1, IdentifierRate: 0.9,
		Heterogeneity: 0.5, HeadFraction: 0.4, TailCoverage: 0.3,
	}).Dataset
	var attrs []string
	for _, ac := range d.Attributes() {
		attrs = append(attrs, ac.Attr)
	}
	byEnt := map[string][]string{}
	for _, r := range d.Records() {
		k := r.EntityID[:len(r.EntityID)-1]
		byEnt[k] = append(byEnt[k], r.ID)
	}
	var clusters data.Clustering
	for _, ids := range byEnt {
		clusters = append(clusters, ids)
	}
	return d, clusters, attrs
}

func TestOnlineKernelMatchesReference(t *testing.T) {
	check := func(t *testing.T, name string, cs *data.ClaimSet, acc map[string]float64, n float64) *OnlineResult {
		t.Helper()
		want, err := referenceFuseOnline(Online{Accuracy: acc, N: n, Workers: 1}, cs)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		for _, workers := range []int{1, 2, 8} {
			got, err := Online{Accuracy: acc, N: n, Workers: workers}.FuseOnline(cs)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if err := sameOnline(want, got); err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
		}
		return want
	}

	t.Run("webs", func(t *testing.T) {
		worlds := map[string]*data.ClaimSet{}
		for _, seed := range []int64{42, 7, 1} {
			worlds[fmt.Sprintf("web%d", seed)] = webClaims(seed)
			worlds[fmt.Sprintf("dense%d", seed)] = onlineWorld(seed).Claims
		}
		for name, cs := range worlds {
			if cs.Len() == 0 {
				t.Fatalf("%s: empty claim set", name)
			}
			for _, n := range []float64{0, 1, 0.5, 10} {
				acc := map[string]float64{}
				for round := 0; round < 4; round++ {
					if round == 2 {
						// A third of the sources so unreliable that their votes
						// count against their own claims.
						for i, s := range cs.Sources() {
							if i%3 == 0 {
								acc[s] = 0.01
							}
						}
					}
					res := check(t, fmt.Sprintf("%s N=%v round %d", name, n, round), cs, acc, n)
					agreementFeedback(acc, cs, res)
				}
			}
		}
	})

	it := data.Item{Entity: "e", Attr: "a"}
	claim := func(cs *data.ClaimSet, src string, v data.Value) {
		cs.Add(data.Claim{Item: it, Source: src, Value: v})
	}
	t.Run("a source's last claim wins", func(t *testing.T) {
		cs := data.NewClaimSet()
		claim(cs, "s1", data.String("A"))
		claim(cs, "s2", data.String("B"))
		claim(cs, "s1", data.String("B"))
		res := check(t, "twice", cs, nil, 0)
		if res.Values[it].Str != "B" {
			t.Errorf("fused %v, want B: s1's second claim replaces its first", res.Values[it])
		}
	})
	t.Run("every weight negative", func(t *testing.T) {
		cs := data.NewClaimSet()
		claim(cs, "s1", data.String("A"))
		claim(cs, "s2", data.String("A"))
		claim(cs, "s3", data.String("B"))
		check(t, "negative", cs, map[string]float64{"s1": 0.01, "s2": 0.02, "s3": 0.03}, 1)
	})
	t.Run("an exact tie goes to the lowest key", func(t *testing.T) {
		cs := data.NewClaimSet()
		claim(cs, "s1", data.String("B"))
		claim(cs, "s2", data.String("A"))
		res := check(t, "tie", cs, map[string]float64{"s1": 0.7, "s2": 0.7}, 0)
		if res.Values[it].Str != "A" {
			t.Errorf("fused %v, want A", res.Values[it])
		}
	})
	t.Run("two values sharing a key", func(t *testing.T) {
		utc := time.Date(2020, 3, 1, 12, 0, 0, 0, time.UTC)
		east := utc.In(time.FixedZone("east", 3*3600))
		if data.Time(utc).Key() != data.Time(east).Key() || data.Time(utc) == data.Time(east) {
			t.Fatal("the two instants must share a key and differ as values")
		}
		for _, acc := range []map[string]float64{
			{"s1": 0.9, "s2": 0.8}, {"s1": 0.8, "s2": 0.9},
		} {
			cs := data.NewClaimSet()
			claim(cs, "s1", data.Time(utc))
			claim(cs, "s2", data.Time(east))
			claim(cs, "s3", data.Number(0))
			claim(cs, "s4", data.Number(math.Copysign(0, -1)))
			check(t, "shared key", cs, acc, 0)
		}
	})
	t.Run("terminates between two claimants, or never", func(t *testing.T) {
		cs := data.NewClaimSet()
		other := data.Item{Entity: "e2", Attr: "a"}
		// s1 and s2 agree on the item; s3..s6 only claim elsewhere, and the
		// lead passes what is left of them part of the way down the order.
		claim(cs, "s1", data.String("A"))
		claim(cs, "s2", data.String("A"))
		for _, s := range []string{"s3", "s4", "s5", "s6", "s7"} {
			cs.Add(data.Claim{Item: other, Source: s, Value: data.String("C")})
		}
		claim(cs, "s7", data.String("B"))
		acc := map[string]float64{"s1": 0.95, "s2": 0.9, "s3": 0.8, "s4": 0.7, "s5": 0.6, "s6": 0.5, "s7": 0.4}
		res := check(t, "between", cs, acc, 0)
		if p := res.Probes[it]; p <= 2 || p >= 7 {
			t.Errorf("probes = %d, want the item finalised between its claimants s2 and s7", p)
		}
		never := data.NewClaimSet()
		claim(never, "s1", data.String("A"))
		claim(never, "s2", data.String("B"))
		never.Add(data.Claim{Item: other, Source: "s3", Value: data.String("C")})
		res = check(t, "never", never, map[string]float64{"s1": 0.7, "s2": 0.7, "s3": 0.7}, 0)
		if res.Probes[it] != 3 {
			t.Errorf("probes = %d, want all 3 sources consulted", res.Probes[it])
		}
	})
	t.Run("empty claim set", func(t *testing.T) {
		check(t, "empty", data.NewClaimSet(), map[string]float64{"s": 0.9}, 0)
	})
	t.Run("cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		cs := webClaims(3)
		for _, workers := range []int{1, 2, 8} {
			_, refErr := referenceFuseOnline(Online{Workers: workers, Ctx: ctx}, cs)
			_, err := Online{Workers: workers, Ctx: ctx}.FuseOnline(cs)
			if !errors.Is(err, context.Canceled) || !errors.Is(refErr, context.Canceled) {
				t.Errorf("workers=%d: kernel %v, reference %v, want context.Canceled from both", workers, err, refErr)
			}
		}
		if _, err := (Online{Ctx: ctx}).FuseOnline(data.NewClaimSet()); err != nil {
			t.Errorf("no items under a cancelled context = %v, want nil like the reference", err)
		}
	})
}
