package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/fusion"
	"repro/internal/source"
)

// The from-scratch publish: what Stream.buildView was before it kept
// cluster views — re-read every record of every cluster into a claim
// set, fuse it, build a snapshot from the result — kept as the oracle
// the cached path is checked against. (fusion.Online.FuseOnline is in
// turn checked against its own dense reference in internal/fusion.)

// oracleView returns the from-scratch snapshot of the stream's current
// state under the accuracy estimates acc, and what a publish would turn
// those estimates into.
func oracleView(t testing.TB, s *Stream, acc map[string]float64) (*Snapshot, map[string]float64) {
	t.Helper()
	d, clusters := s.Dataset(), s.Clusters()
	var attrs []string
	for _, ac := range d.Attributes() {
		attrs = append(attrs, ac.Attr)
	}
	sort.Strings(attrs)
	claims := data.ClaimsFromClusters(d, clusters, attrs)
	res, err := fusion.Online{Accuracy: acc, N: s.cfg.FusionN, Workers: 1}.FuseOnline(claims)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := BuildSnapshot(&Report{Normalized: d, Clusters: clusters, Fusion: &res.Result})
	if err != nil {
		t.Fatal(err)
	}
	next := map[string]float64{}
	for src, a := range acc {
		next[src] = a
	}
	for _, src := range claims.Sources() {
		agree, total := 0, 0
		for _, c := range claims.SourceClaims(src) {
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
			next[src] = (float64(agree) + 1) / (float64(total) + 2)
		}
	}
	return snap, next
}

// sameHits compares two hit lists by entity ID and score bits.
func sameHits(got, want []Hit) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d hits, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Entity.ID != want[i].Entity.ID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return fmt.Errorf("hit %d is %s at %v, want %s at %v", i, got[i].Entity.ID, got[i].Score, want[i].Entity.ID, want[i].Score)
		}
	}
	return nil
}

// sameSnapshot compares two snapshots on every observable: the entities
// (values by their full spelling, confidences by their bits) and, with
// each entity's title as the query, Search, Similar and Resolve.
func sameSnapshot(got, want *Snapshot) error {
	if got.Len() != want.Len() {
		return fmt.Errorf("%d entities, want %d", got.Len(), want.Len())
	}
	for i, w := range want.Entities() {
		g := got.Entities()[i]
		if !reflect.DeepEqual(g, w) {
			return fmt.Errorf("entity %d is\n%+v\nwant\n%+v", i, g, w)
		}
		for a, c := range w.Confidence {
			if math.Float64bits(g.Confidence[a]) != math.Float64bits(c) {
				return fmt.Errorf("entity %s confidence[%s] = %v, want %v", w.ID, a, g.Confidence[a], c)
			}
			// DeepEqual takes -0 for 0; their keys differ.
			if gk, wk := g.Values[a].Key(), w.Values[a].Key(); gk != wk {
				return fmt.Errorf("entity %s value[%s] = %s, want %s", w.ID, a, gk, wk)
			}
		}
		if byID, ok := got.Entity(w.ID); !ok || byID != g {
			return fmt.Errorf("Entity(%s) does not return entity %d", w.ID, i)
		}
		gs, gerr := got.Similar(w.ID, 0)
		ws, werr := want.Similar(w.ID, 0)
		if gerr != nil || werr != nil {
			return fmt.Errorf("Similar(%s): %v, the oracle %v", w.ID, gerr, werr)
		}
		if err := sameHits(gs, ws); err != nil {
			return fmt.Errorf("Similar(%s): %v", w.ID, err)
		}
		if w.Title == "" {
			continue
		}
		gh, gerr := got.Search(w.Title, 0)
		wh, werr := want.Search(w.Title, 0)
		if (gerr == nil) != (werr == nil) {
			return fmt.Errorf("Search(%q): %v, the oracle %v", w.Title, gerr, werr)
		}
		if err := sameHits(gh, wh); err != nil {
			return fmt.Errorf("Search(%q): %v", w.Title, err)
		}
		q := data.NewRecord("__query__", "client").Set("title", data.String(w.Title))
		for a, v := range w.Values {
			if a != "title" && v.Kind != data.KindString {
				q.Set(a, v) // an exact-value probe beside the text one
			}
		}
		gr, gerr := got.Resolve(q, 0)
		wr, werr := want.Resolve(q, 0)
		if gerr != nil || werr != nil {
			return fmt.Errorf("Resolve(%q): %v, the oracle %v", w.Title, gerr, werr)
		}
		if err := sameHits(gr, wr); err != nil {
			return fmt.Errorf("Resolve(%q): %v", w.Title, err)
		}
	}
	return nil
}

// sameAccuracy compares two accuracy maps bit for bit.
func sameAccuracy(got, want map[string]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("accuracy of %d sources, want %d", len(got), len(want))
	}
	for src, w := range want {
		if g, ok := got[src]; !ok || math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Errorf("accuracy[%s] = %v, want %v", src, g, w)
		}
	}
	return nil
}

// The op-sequence fuzz target. Two bytes make one op over a pool of 32
// record IDs; the first byte's top three bits pick the kind, its low
// five the ID, and the second byte the record's content:
//
//	0-2  upsert: an insert, an update of the same ID, or a revive
//	3    delete: of a live, a never-inserted or an already-deleted ID
//	4    delete of an ID outside the pool
//	5    Publish
//	6    Rebuild
//	7    Save → LoadStream, and carry on with the restored stream
//
// A title is four of its family's eight tokens and the rule wants a
// token Jaccard of 0.6, so two titles link exactly when they share three
// tokens: clusters merge through bridges and split again when a bridge
// is deleted or updated. The other attributes draw from small pools, so
// the four sources agree, conflict and claim an item twice; "seen" is
// one instant spelt in two time zones and "weight" takes 0 and -0.
const fuzzStreamIDs = 32

var (
	fuzzStreamTitles = func() []string {
		var out []string
		for _, family := range []string{"acme", "omega"} {
			for mask := uint(0); mask < 1<<8; mask++ {
				if bits.OnesCount(mask) != 4 {
					continue
				}
				var words []string
				for b := 0; b < 8; b++ {
					if mask&(1<<b) != 0 {
						words = append(words, fmt.Sprintf("%s%d", family, b))
					}
				}
				out = append(out, strings.Join(words, " "))
			}
		}
		return out
	}()
	fuzzStreamMetas = func() map[string]*data.Source {
		m := map[string]*data.Source{}
		for _, id := range []string{"s0", "s1", "s2", "s3"} {
			m[id] = &data.Source{ID: id, Name: id}
		}
		return m
	}()
	fuzzInstant = time.Date(2021, 6, 1, 9, 30, 0, 0, time.UTC)
)

// fuzzStreamRecord derives a record from an op's two bytes.
func fuzzStreamRecord(id string, a, b byte) *data.Record {
	r := data.NewRecord(id, fmt.Sprintf("s%d", (a^b)&3))
	r.Set("title", data.String(fuzzStreamTitles[int(b)%len(fuzzStreamTitles)]))
	if b&1 == 0 {
		r.Set("color", data.String([]string{"red", "green", "dark red"}[int(b>>1)%3]))
	}
	switch (b >> 3) & 3 {
	case 0:
		r.Set("weight", data.Number(0))
	case 1:
		r.Set("weight", data.Number(math.Copysign(0, -1)))
	case 2:
		r.Set("weight", data.Number(float64(b>>5)+0.5))
	}
	switch (b >> 5) & 3 {
	case 0:
		r.Set("seen", data.Time(fuzzInstant))
	case 1:
		r.Set("seen", data.Time(fuzzInstant.In(time.FixedZone("east", 2*3600))))
	case 2:
		r.Set("seen", data.Time(fuzzInstant.Add(time.Duration(b&7)*time.Hour)))
	}
	if b&0x90 == 0x90 {
		r.Set("pid", data.String(fmt.Sprintf("p%d", b&3))) // identifier equality links whatever the titles
	}
	if b == 0xff {
		r = data.NewRecord(r.ID, r.SourceID) // a member that claims nothing
	}
	return r
}

// FuzzStreamOps replays an op sequence into a Stream and requires, after
// every Publish and Rebuild, the published snapshot to equal the
// from-scratch oracle on every observable and the accuracy estimates to
// be the oracle's bit for bit (untouched, after a Rebuild) — at fusion
// workers 1, 2 and 8. The committed corpus under
// testdata/fuzz/FuzzStreamOps (three sequences of 2,500 ops drawn from
// math/rand with seeds 1, 2 and 3) runs on every plain `go test`;
// `go test -fuzz FuzzStreamOps ./internal/core` explores.
func FuzzStreamOps(f *testing.F) {
	f.Add([]byte{0x00, 0x10, 0x01, 0x11, 0xa0, 0, 0x22, 0x12, 0xc0, 0, 0x61, 0, 0xa0, 0, 0xe0, 0, 0x03, 0xff, 0xa0, 0, 0x80, 1, 0x80, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		ctx := context.Background()
		for _, workers := range []int{1, 2, 8} {
			cfg := StreamConfig{MaxBlock: 6, Workers: workers, StatePath: filepath.Join(t.TempDir(), "stream.state")}
			s, err := NewStream(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			apply := func(dl source.Delta) {
				if err := s.ApplyDeltas(fuzzStreamMetas, source.DeltaEpoch{Seq: s.Epoch(), Deltas: []source.Delta{dl}}); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i+1 < len(ops); i += 2 {
				kind, id := ops[i]>>5, fmt.Sprintf("r%02d", ops[i]&(fuzzStreamIDs-1))
				where := fmt.Sprintf("workers=%d op %d (kind %d, %s)", workers, i/2, kind, id)
				switch {
				case kind <= 2:
					apply(source.Upsert(fuzzStreamRecord(id, ops[i], ops[i+1])))
				case kind == 3:
					apply(source.Deletion(id))
				case kind == 4:
					apply(source.Deletion(fmt.Sprintf("outsider%d", ops[i+1])))
				case kind == 5 || kind == 6:
					before := s.Accuracy()
					want, wantAcc := oracleView(t, s, before)
					var got *Snapshot
					if kind == 5 {
						got, err = s.Publish(ctx)
					} else {
						got, err = s.Rebuild(ctx)
						wantAcc = before
					}
					if err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					if err := sameSnapshot(got, want); err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					if err := sameAccuracy(s.Accuracy(), wantAcc); err != nil {
						t.Fatalf("%s: %v", where, err)
					}
				case kind == 7:
					if err := s.Save(cfg.StatePath); err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					if s, err = LoadStream(cfg.StatePath, cfg, nil); err != nil {
						t.Fatalf("%s: %v", where, err)
					}
				}
			}
		}
	})
}
