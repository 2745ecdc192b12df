package fusion

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"repro/internal/data"
	"repro/internal/datagen"
)

// resultDigest is one FNV-64 over a result: per item in the claim set's
// item order its name, the fused value's key and the confidence bits,
// then the source accuracies in sorted source order, then the iteration
// count.
func resultDigest(cs *data.ClaimSet, res *Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	word := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	for _, it := range cs.Items() {
		h.Write([]byte(it.String()))
		if v, ok := res.Values[it]; ok {
			h.Write([]byte(v.Key()))
		} else {
			h.Write([]byte{0})
		}
		word(math.Float64bits(res.Confidence[it]))
	}
	srcs := make([]string, 0, len(res.SourceAccuracy))
	for s := range res.SourceAccuracy {
		srcs = append(srcs, s)
	}
	sort.Strings(srcs)
	for _, s := range srcs {
		h.Write([]byte(s))
		word(math.Float64bits(res.SourceAccuracy[s]))
	}
	word(uint64(res.Iterations))
	return h.Sum64()
}

// bitsFusers is every fuser the pipeline and the experiments name, built
// for one claim set and worker count.
func bitsFusers(cs *data.ClaimSet, workers int) []Fuser {
	weights, acc := map[string]float64{}, map[string]float64{}
	for i, s := range cs.Sources() {
		weights[s] = 0.5 + float64(i%3)
		acc[s] = 0.5 + 0.04*float64(i%10)
	}
	sim := func(a, b data.Value) float64 {
		if a.Kind == b.Kind && a.Str != "" && b.Str != "" && a.Str[0] == b.Str[0] {
			return 0.3
		}
		return 0
	}
	return []Fuser{
		MajorityVote{Workers: workers},
		WeightedVote{Weights: weights, Workers: workers},
		TruthFinder{Workers: workers},
		ACCU{Workers: workers},
		ACCU{Popularity: true, Workers: workers},
		ACCU{Similarity: sim, Workers: workers},
		ACCUCOPY{Accu: ACCU{Workers: workers}},
		Online{Accuracy: acc, Workers: workers},
		NumericFusion{},
	}
}

// TestFusersKeepParentBits pins every fuser's output bits on three
// claim-set shapes — a seeded LCG workload with duplicate claims, a
// datagen claim world with copiers, and ClaimsFromClusters over a dirty
// web whose clusters hold two records of one source — at workers
// {1, 2, 8}, to the digests recorded before the claim table was
// flattened.
func TestFusersKeepParentBits(t *testing.T) {
	inputs := []struct {
		name string
		cs   *data.ClaimSet
		want []uint64 // in bitsFusers order
	}{
		{"det", detClaims(60, 12, 42), []uint64{
			0xc6b3693d17270401, 0x7081bb6ac7387caa, 0xdb333e2a26496ced,
			0x11f09f91f98a911a, 0x079e442e735d9317, 0x52af1630a08b5fba,
			0x555fcf290cde3fd7, 0xbb6cc56c26cb9421, 0xc6b3693d17270401,
		}},
		{"world", datagen.BuildClaims(datagen.ClaimConfig{
			Seed: 9, NumItems: 150, NumValues: 5, NumSources: 10,
			MinAccuracy: 0.4, MaxAccuracy: 0.95, NumCopiers: 3, CopyRate: 0.9,
		}).Claims, []uint64{
			0x142bacdf25cc2f8d, 0x3cfb0a8056afccc6, 0x9587f61d757021c4,
			0xdf73312401f0695b, 0x8b230fda49899ed9, 0x99e994d86328db66,
			0xc74dc8c448cef284, 0x03246f1a22acceb7, 0x142bacdf25cc2f8d,
		}},
		{"web", webClaims(42), []uint64{
			0xf1446010cb90e267, 0x7e691b6b26d1b9d2, 0x8aef5d25cdad07a2,
			0xb52b1dccc2bc10b2, 0x09756711cf24f8ed, 0xfb22bc650124f726,
			0x0cde55ab2f2d58f2, 0x42314cc12338ac64, 0xd926979c428c4c34,
		}},
	}
	for _, in := range inputs {
		for _, w := range workerCounts {
			for i, f := range bitsFusers(in.cs, w) {
				res, err := f.Fuse(in.cs)
				if err != nil {
					t.Fatalf("%s %s workers=%d: %v", in.name, f.Name(), w, err)
				}
				if got := resultDigest(in.cs, res); got != in.want[i] {
					t.Errorf("%s %s workers=%d: digest %#x, want %#x", in.name, f.Name(), w, got, in.want[i])
				}
			}
		}
	}
}
