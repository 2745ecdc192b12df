package fusion

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/data"
)

// ---------------------------------------------------------------------
// Reference implementations: the pre-engine map-based fusers, verbatim
// except for the two deliberate determinism fixes (softmax and
// simAdjust accumulate in sorted key order). Every engine fuser is
// pinned byte-identical to these for workers ∈ {1, 2, 8} — the fusion
// counterpart of blocking's engine_test.go.
// ---------------------------------------------------------------------

func refWeightedVote(cs *data.ClaimSet, weight func(string) float64) *Result {
	res := &Result{
		Values:     map[data.Item]data.Value{},
		Confidence: map[data.Item]float64{},
		Iterations: 1,
	}
	for _, it := range cs.Items() {
		vc := tally(cs.ItemClaims(it))
		var bestKey string
		var bestW, totalW float64
		keys := append([]string(nil), vc.keyOrder...)
		sort.Strings(keys)
		for _, k := range keys {
			var w float64
			for _, s := range vc.sources[k] {
				w += weight(s)
			}
			totalW += w
			if w > bestW {
				bestW, bestKey = w, k
			}
		}
		if bestKey == "" {
			continue
		}
		res.Values[it] = vc.values[bestKey]
		if totalW > 0 {
			res.Confidence[it] = bestW / totalW
		}
	}
	return res
}

func refTruthFinder(tf TruthFinder, cs *data.ClaimSet) *Result {
	gamma, trust0, maxIter, eps := 0.3, 0.8, 20, 1e-4
	trust := map[string]float64{}
	for _, s := range cs.Sources() {
		trust[s] = trust0
	}
	items := cs.Items()
	tallies := make([]*voteCounts, len(items))
	for i, it := range items {
		tallies[i] = tally(cs.ItemClaims(it))
	}
	const maxTrust = 0.999999
	conf := map[data.Item]map[string]float64{}
	iters := 0
	for iter := 0; iter < maxIter; iter++ {
		iters = iter + 1
		for i, it := range items {
			vc := tallies[i]
			m := map[string]float64{}
			for _, k := range vc.keyOrder {
				var sigma float64
				for _, s := range vc.sources[k] {
					t := trust[s]
					if t > maxTrust {
						t = maxTrust
					}
					sigma += -math.Log(1 - t)
				}
				m[k] = 1 / (1 + math.Exp(-gamma*sigma))
			}
			conf[it] = m
		}
		maxDelta := 0.0
		for _, s := range cs.Sources() {
			claims := cs.SourceClaims(s)
			if len(claims) == 0 {
				continue
			}
			var sum float64
			for _, c := range claims {
				sum += conf[c.Item][c.Value.Key()]
			}
			next := sum / float64(len(claims))
			if d := math.Abs(next - trust[s]); d > maxDelta {
				maxDelta = d
			}
			trust[s] = next
		}
		if maxDelta < eps {
			break
		}
	}
	res := &Result{
		Values:         map[data.Item]data.Value{},
		Confidence:     map[data.Item]float64{},
		SourceAccuracy: trust,
		Iterations:     iters,
	}
	for i, it := range items {
		vc := tallies[i]
		keys := append([]string(nil), vc.keyOrder...)
		sort.Strings(keys)
		bestKey, best := "", -1.0
		for _, k := range keys {
			if c := conf[it][k]; c > best {
				best, bestKey = c, k
			}
		}
		if bestKey != "" {
			res.Values[it] = vc.values[bestKey]
			res.Confidence[it] = best
		}
	}
	return res
}

func refSimAdjust(a ACCU, vc *voteCounts, scores map[string]float64) map[string]float64 {
	rho := a.SimInfluence
	if rho <= 0 {
		rho = 0.5
	}
	keys := append([]string(nil), vc.keyOrder...)
	sort.Strings(keys) // determinism fix: boost accumulates in sorted key order
	adj := make(map[string]float64, len(scores))
	for _, k := range keys {
		boost := 0.0
		for _, k2 := range keys {
			if k == k2 {
				continue
			}
			if sim := a.Similarity(vc.values[k], vc.values[k2]); sim > 0 {
				boost += sim * scores[k2]
			}
		}
		adj[k] = scores[k] + rho*boost
	}
	return adj
}

func refACCU(a ACCU, cs *data.ClaimSet) *Result { return refACCUDiscounted(a, cs, nil) }

// discountKey names one vote in the reference ACCUCOPY's discount map.
type discountKey struct {
	it       data.Item
	valueKey string
	source   string
}

// refACCUDiscounted is refACCU with each vote scaled by copyDiscount
// when that is set — how the reference ACCUCOPY re-fuses.
func refACCUDiscounted(a ACCU, cs *data.ClaimSet, copyDiscount func(it data.Item, valueKey, source string) float64) *Result {
	n, acc0, maxIter, eps := a.params()
	accuracy := map[string]float64{}
	for _, s := range cs.Sources() {
		accuracy[s] = acc0
	}
	items := cs.Items()
	tallies := make([]*voteCounts, len(items))
	for i, it := range items {
		tallies[i] = tally(cs.ItemClaims(it))
	}
	const minAcc, maxAcc = 0.01, 0.99
	post := make([]map[string]float64, len(items))
	itemIndex := map[data.Item]int{}
	for i, it := range items {
		itemIndex[it] = i
	}
	iters := 0
	for iter := 0; iter < maxIter; iter++ {
		iters = iter + 1
		for i, it := range items {
			vc := tallies[i]
			effN := n
			if a.Popularity {
				if d := float64(len(vc.keyOrder)); d > 1 {
					effN = d
				} else {
					effN = 2
				}
			}
			scores := map[string]float64{}
			for _, k := range vc.keyOrder {
				var sum float64
				for _, s := range vc.sources[k] {
					acc := clampF(accuracy[s], minAcc, maxAcc)
					w := math.Log(effN * acc / (1 - acc))
					if copyDiscount != nil {
						w *= copyDiscount(it, k, s)
					}
					sum += w
				}
				scores[k] = sum
			}
			if a.Similarity != nil {
				scores = refSimAdjust(a, vc, scores)
			}
			post[i] = softmax(scores)
		}
		maxDelta := 0.0
		for _, s := range cs.Sources() {
			claims := cs.SourceClaims(s)
			if len(claims) == 0 {
				continue
			}
			var sum float64
			for _, c := range claims {
				sum += post[itemIndex[c.Item]][c.Value.Key()]
			}
			next := clampF(sum/float64(len(claims)), minAcc, maxAcc)
			if d := math.Abs(next - accuracy[s]); d > maxDelta {
				maxDelta = d
			}
			accuracy[s] = next
		}
		if maxDelta < eps {
			break
		}
	}
	res := &Result{
		Values:         map[data.Item]data.Value{},
		Confidence:     map[data.Item]float64{},
		SourceAccuracy: accuracy,
		Iterations:     iters,
	}
	for i, it := range items {
		vc := tallies[i]
		keys := append([]string(nil), vc.keyOrder...)
		sort.Strings(keys)
		bestKey, best := "", -1.0
		for _, k := range keys {
			if p := post[i][k]; p > best {
				best, bestKey = p, k
			}
		}
		if bestKey != "" {
			res.Values[it] = vc.values[bestKey]
			res.Confidence[it] = best
		}
	}
	return res
}

func refDetect(cd CopyDetector, cs *data.ClaimSet, truth *Result, accuracy map[string]float64) map[SourcePair]float64 {
	alpha, c, n, minOv := cd.params()
	claimOf := map[string]map[data.Item]string{}
	for _, s := range cs.Sources() {
		m := map[data.Item]string{}
		for _, cl := range cs.SourceClaims(s) {
			m[cl.Item] = cl.Value.Key()
		}
		claimOf[s] = m
	}
	sources := cs.Sources()
	out := map[SourcePair]float64{}
	for i := 0; i < len(sources); i++ {
		for j := i + 1; j < len(sources); j++ {
			s1, s2 := sources[i], sources[j]
			kt, kf, kd := 0, 0, 0
			for it, v1 := range claimOf[s1] {
				v2, ok := claimOf[s2][it]
				if !ok {
					continue
				}
				var truthVal data.Value
				hasTruth := false
				if !cd.IgnoreTruth && truth != nil {
					truthVal, hasTruth = truth.Values[it]
				}
				switch {
				case v1 != v2:
					kd++
				case hasTruth && v1 == truthVal.Key():
					kt++
				case hasTruth:
					kf++
				default:
					kt++
				}
			}
			if kt+kf+kd < minOv {
				continue
			}
			a1 := defaultAcc(accuracy, s1)
			a2 := defaultAcc(accuracy, s2)
			pt := a1 * a2
			pf := (1 - a1) * (1 - a2) / n
			if cd.IgnoreTruth {
				pt += pf
			}
			pd := 1 - pt - pf
			if pd < 1e-9 {
				pd = 1e-9
			}
			ct := c + (1-c)*pt
			cf := c + (1-c)*pf
			cdiff := (1 - c) * pd
			logIndep := float64(kt)*math.Log(pt) + float64(kf)*math.Log(pf) + float64(kd)*math.Log(pd)
			logCopy := float64(kt)*math.Log(ct) + float64(kf)*math.Log(cf) + float64(kd)*math.Log(cdiff)
			lc := math.Log(alpha) + logCopy
			li := math.Log(1-alpha) + logIndep
			m := math.Max(lc, li)
			out[NewSourcePair(s1, s2)] = math.Exp(lc-m) / (math.Exp(lc-m) + math.Exp(li-m))
		}
	}
	return out
}

func refBuildDiscounts(cs *data.ClaimSet, copies map[SourcePair]float64,
	accuracy map[string]float64, copyRate float64) map[discountKey]float64 {
	out := map[discountKey]float64{}
	for _, it := range cs.Items() {
		vc := tally(cs.ItemClaims(it))
		for _, k := range vc.keyOrder {
			claimants := append([]string(nil), vc.sources[k]...)
			sort.Slice(claimants, func(i, j int) bool {
				ai, aj := defaultAcc(accuracy, claimants[i]), defaultAcc(accuracy, claimants[j])
				if ai != aj {
					return ai > aj
				}
				return claimants[i] < claimants[j]
			})
			for i, s := range claimants {
				indep := 1.0
				for j := 0; j < i; j++ {
					p := copies[NewSourcePair(s, claimants[j])]
					indep *= 1 - copyRate*p
				}
				out[discountKey{it, k, s}] = indep
			}
		}
	}
	return out
}

func refACCUCOPY(ac ACCUCOPY, cs *data.ClaimSet) *Result {
	outer := ac.OuterIterations
	if outer <= 0 {
		outer = 3
	}
	_, c, _, _ := ac.Detector.params()
	accu := ac.Accu
	res := refACCU(accu, cs)
	for iter := 0; iter < outer; iter++ {
		accIn := res.SourceAccuracy
		det := ac.Detector
		if iter == 0 && !ac.DisableBootstrap {
			_, acc0, _, _ := accu.params()
			accIn = map[string]float64{}
			for _, s := range cs.Sources() {
				accIn[s] = acc0
			}
			det.IgnoreTruth = true
		}
		copies := refDetect(det, cs, res, accIn)
		discounts := refBuildDiscounts(cs, copies, res.SourceAccuracy, c)
		res = refACCUDiscounted(accu, cs, func(it data.Item, valueKey, source string) float64 {
			if d, ok := discounts[discountKey{it, valueKey, source}]; ok {
				return d
			}
			return 1
		})
	}
	res.Iterations = outer
	return res
}

func refOnline(o Online, cs *data.ClaimSet) *Result {
	order := append([]string(nil), cs.Sources()...)
	sort.Slice(order, func(i, j int) bool {
		wi, wj := o.weightOf(order[i]), o.weightOf(order[j])
		if wi != wj {
			return wi > wj
		}
		return order[i] < order[j]
	})
	claimOf := map[string]map[data.Item]data.Value{}
	for _, s := range order {
		m := map[data.Item]data.Value{}
		for _, c := range cs.SourceClaims(s) {
			m[c.Item] = c.Value
		}
		claimOf[s] = m
	}
	remaining := make([]float64, len(order)+1)
	for i := len(order) - 1; i >= 0; i-- {
		remaining[i] = remaining[i+1] + o.weightOf(order[i])
	}
	res := &Result{
		Values:         map[data.Item]data.Value{},
		Confidence:     map[data.Item]float64{},
		SourceAccuracy: map[string]float64{},
		Iterations:     1,
	}
	for _, s := range order {
		res.SourceAccuracy[s] = clampF(accOrDefault(o.Accuracy, s), 0.05, 0.95)
	}
	for _, it := range cs.Items() {
		scores := map[string]float64{}
		values := map[string]data.Value{}
		finalised := false
		for i, s := range order {
			if v, ok := claimOf[s][it]; ok {
				k := v.Key()
				scores[k] += o.weightOf(s)
				values[k] = v
			}
			lead, second := topTwo(scores)
			if lead != "" && scores[lead]-second > remaining[i+1] {
				res.Values[it] = values[lead]
				res.Confidence[it] = confidenceOf(scores, lead)
				finalised = true
				break
			}
		}
		if !finalised {
			if lead, _ := topTwo(scores); lead != "" {
				res.Values[it] = values[lead]
				res.Confidence[it] = confidenceOf(scores, lead)
			}
		}
	}
	return res
}

// ---------------------------------------------------------------------
// Deterministic workload
// ---------------------------------------------------------------------

// detClaims builds a seeded claim workload via an LCG: items with
// varying numbers of distinct values, sources that skip items, a
// perfect copier pair, duplicate claims by one source on one item
// (exercising the detector's last-claim-wins indexing), and ground
// truth on every item.
func detClaims(nItems, nSources int, seed uint64) *data.ClaimSet {
	cs := data.NewClaimSet()
	state := seed
	next := func(mod int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(mod))
	}
	for i := 0; i < nItems; i++ {
		it := data.Item{Entity: fmt.Sprintf("e%03d", i), Attr: "v"}
		truthV := next(4)
		cs.SetTruth(it, data.String(fmt.Sprintf("val-%d", truthV)))
		var copied data.Value
		hasCopied := false
		for s := 0; s < nSources; s++ {
			if next(10) == 0 && s != nSources-1 {
				continue // this source skips the item
			}
			v := truthV
			if next(10) < 3 {
				v = next(8) // error: one of 8 wrong-ish values
			}
			val := data.String(fmt.Sprintf("val-%d", v))
			src := fmt.Sprintf("s%02d", s)
			cs.Add(data.Claim{Item: it, Source: src, Value: val})
			if s == 0 {
				copied, hasCopied = val, true
			}
			// s01 copies s00 wholesale: first claims its own value, then
			// re-claims s00's (duplicate claims, last wins in detection).
			if s == 1 && hasCopied {
				cs.Add(data.Claim{Item: it, Source: src, Value: copied})
			}
		}
	}
	return cs
}

var workerCounts = []int{1, 2, 8}

// ---------------------------------------------------------------------
// Parity pins
// ---------------------------------------------------------------------

// TestEngineMatchesReference pins every engine fuser byte-identical to
// its pre-engine reference implementation, at every worker count.
func TestEngineMatchesReference(t *testing.T) {
	cs := detClaims(60, 12, 42)
	sim := func(a, b data.Value) float64 {
		if a.Key()[:4] == b.Key()[:4] {
			return 0.3
		}
		return 0
	}
	weights := map[string]float64{"s00": 2.5, "s03": 0.5, "s07": 1.5}

	cases := []struct {
		name string
		mk   func(workers int) Fuser
		ref  func() *Result
	}{
		{"vote", func(w int) Fuser { return MajorityVote{Workers: w} },
			func() *Result { return refWeightedVote(cs, func(string) float64 { return 1 }) }},
		{"weighted-vote", func(w int) Fuser { return WeightedVote{Weights: weights, Workers: w} },
			func() *Result {
				return refWeightedVote(cs, func(s string) float64 {
					if wt, ok := weights[s]; ok {
						return wt
					}
					return 1
				})
			}},
		{"truthfinder", func(w int) Fuser { return TruthFinder{Workers: w} },
			func() *Result { return refTruthFinder(TruthFinder{}, cs) }},
		{"accu", func(w int) Fuser { return ACCU{Workers: w} },
			func() *Result { return refACCU(ACCU{}, cs) }},
		{"popaccu", func(w int) Fuser { return ACCU{Popularity: true, Workers: w} },
			func() *Result { return refACCU(ACCU{Popularity: true}, cs) }},
		{"accusim", func(w int) Fuser { return ACCU{Similarity: sim, Workers: w} },
			func() *Result { return refACCU(ACCU{Similarity: sim}, cs) }},
		{"accucopy", func(w int) Fuser { return ACCUCOPY{Accu: ACCU{Workers: w}} },
			func() *Result { return refACCUCOPY(ACCUCOPY{}, cs) }},
		{"online", func(w int) Fuser { return Online{Workers: w} },
			func() *Result { return refOnline(Online{}, cs) }},
	}
	for _, tc := range cases {
		ref := tc.ref()
		for _, w := range workerCounts {
			res, err := tc.mk(w).Fuse(cs)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, w, err)
			}
			if diff, ok := sameBits(ref, res); !ok {
				t.Errorf("%s workers=%d diverges from reference: %s", tc.name, w, diff)
			}
		}
	}
}

// TestDetectMatchesReference pins the parallel pairwise copy detector
// to the sequential map-based reference, with and without truth
// conditioning, at every worker count.
func TestDetectMatchesReference(t *testing.T) {
	cs := detClaims(80, 10, 7)
	truth, err := ACCU{}.Fuse(cs)
	if err != nil {
		t.Fatal(err)
	}
	for _, ignore := range []bool{false, true} {
		cd := CopyDetector{IgnoreTruth: ignore}
		ref := refDetect(cd, cs, truth, truth.SourceAccuracy)
		for _, w := range workerCounts {
			cdw := cd
			cdw.Workers = w
			got := cdw.Detect(cs, truth, truth.SourceAccuracy)
			if len(got) != len(ref) {
				t.Fatalf("ignoreTruth=%v workers=%d: %d pairs vs %d", ignore, w, len(got), len(ref))
			}
			for pair, p := range ref {
				if math.Float64bits(got[pair]) != math.Float64bits(p) {
					t.Errorf("ignoreTruth=%v workers=%d pair %v: %x vs %x",
						ignore, w, pair, math.Float64bits(got[pair]), math.Float64bits(p))
				}
			}
		}
	}
	// The engineered copier pair must stand out.
	p := CopyDetector{}.Detect(cs, truth, truth.SourceAccuracy)[SourcePair{A: "s00", B: "s01"}]
	if p < 0.9 {
		t.Errorf("copier pair s00/s01 scored %.3f, want > 0.9", p)
	}
}

// TestFuseTraceLastEqualsFuse pins the single-run trace: its final
// snapshot must be bit-identical to what Fuse returns.
func TestFuseTraceLastEqualsFuse(t *testing.T) {
	cs := detClaims(50, 9, 3)
	for _, a := range []ACCU{{}, {Popularity: true}} {
		res, err := a.Fuse(cs)
		if err != nil {
			t.Fatal(err)
		}
		trace, err := a.FuseTrace(cs)
		if err != nil {
			t.Fatal(err)
		}
		if len(trace) == 0 {
			t.Fatal("empty trace")
		}
		if len(trace) != res.Iterations {
			t.Errorf("%s: trace has %d entries, Fuse ran %d iterations", a.Name(), len(trace), res.Iterations)
		}
		if diff, ok := sameBits(res, trace[len(trace)-1]); !ok {
			t.Errorf("%s: trace last entry differs from Fuse: %s", a.Name(), diff)
		}
	}
}

// TestEngineWorkerParityOnNearTies re-runs the near-tie determinism
// workload across worker counts: parallelism must not reintroduce what
// the softmax fix removed.
func TestEngineWorkerParityOnNearTies(t *testing.T) {
	cs := nearTieClaims()
	for _, fuser := range []Fuser{ACCU{Workers: 1}, TruthFinder{Workers: 1}} {
		base, err := fuser.Fuse(cs)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workerCounts[1:] {
			var f Fuser
			switch fuser.(type) {
			case ACCU:
				f = ACCU{Workers: w}
			case TruthFinder:
				f = TruthFinder{Workers: w}
			}
			res, err := f.Fuse(cs)
			if err != nil {
				t.Fatal(err)
			}
			if diff, ok := sameBits(base, res); !ok {
				t.Errorf("%s workers=%d vs 1: %s", fuser.Name(), w, diff)
			}
		}
	}
}

// BenchmarkFusionStage times the batch fusion stage layer by layer on a
// ClaimsFromClusters set from a seeded dirty web of about 5k records:
// writing the claim table, ACCU over it, and the online kernel over it.
func BenchmarkFusionStage(b *testing.B) {
	d, clusters, attrs := dirtyWeb(11, 1220)
	cs := data.ClaimsFromClusters(d, clusters, attrs)
	b.Logf("%d records, %d claims, %d items", len(d.Records()), cs.Len(), cs.NumItems())
	for _, bc := range []struct {
		name string
		run  func() error
	}{
		{"claims", func() error { data.ClaimsFromClusters(d, clusters, attrs); return nil }},
		{"accu", func() error { _, err := (ACCU{}).Fuse(cs); return err }},
		{"online", func() error { _, err := (Online{}).FuseOnline(cs); return err }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
