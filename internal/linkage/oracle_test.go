package linkage

import (
	"fmt"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/similarity"
)

// The op-sequence fuzz target. Two bytes make one op over a pool of 32
// record IDs and 210 titles; the first byte's top three bits pick the
// kind, its low five the ID, the second byte the title:
//
//	0-2  Upsert: an insert, an update of the same ID, or a revive
//	3    Insert: a duplicate-ID error when the ID is live, else as above
//	4-5  Delete: of a live, a never-inserted or an already-deleted ID
//	6    Compact of the reference alone (even title byte) or Delete of
//	     an ID outside the pool
//	7    State → FromState, and carry on with the restored linker
//
// A title is four of its family's eight tokens, and the matcher wants a
// token Jaccard of 0.6, so two titles link exactly when they share
// three tokens: a-b-c-d links to a-b-c-e and that to a-b-e-f, which
// does not link to the first. Components merge through such bridges
// and split again when a bridge is deleted or updated. MaxBlock is 6,
// below what a token's posting list reaches, so the stop-token gate
// opens and closes as records come and go.
const (
	fuzzIDs      = 32
	fuzzMaxBlock = 6
)

var fuzzTitles = func() []string {
	var out []string
	for _, family := range []string{"acme", "omega", "zenix"} {
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

// opLinker is what an op of the fuzz sequence calls on a linker.
type opLinker interface {
	Upsert(src *data.Source, r *data.Record) ([]string, bool, error)
	Insert(src *data.Source, r *data.Record) ([]string, error)
	Delete(id string) bool
}

// fuzzOp decodes op i of ops (see the table above) and applies it to l,
// returning what the call returned; rec is the op's record,
// fuzzRecord(ops, i). The State → FromState op is the caller's: fuzzOp
// reports it as restore.
func fuzzOp(l opLinker, src *data.Source, ops []byte, i int, rec *data.Record) (got string, restore bool) {
	kind, id := ops[i]>>5, fmt.Sprintf("r%02d", ops[i]&(fuzzIDs-1))
	switch {
	case kind <= 2:
		m, u, err := l.Upsert(src, rec)
		return fmt.Sprint(m, u, err), false
	case kind == 3:
		m, err := l.Insert(src, rec)
		return fmt.Sprint(m, err), false
	case kind == 6 && ops[i+1]%2 == 0:
		// Only the reference tombstones; sweeping its dead slots must
		// change nothing it reports.
		if ref, ok := l.(*refIncremental); ok {
			ref.Compact()
		}
		return "", false
	case kind == 7:
		return "", true
	case kind == 6:
		id = fmt.Sprintf("outsider%d", ops[i+1])
	}
	return fmt.Sprint(l.Delete(id)), false
}

// fuzzRecord is the record op i of ops upserts or inserts.
func fuzzRecord(ops []byte, i int) *data.Record {
	return retractRecord(fmt.Sprintf("r%02d", ops[i]&(fuzzIDs-1)), fuzzTitles[int(ops[i+1])%len(fuzzTitles)])
}

// FuzzIncrementalOps replays an op sequence into the linker and into the
// tombstoning one (reference_test.go) and requires, after every op, the
// same return values, clustering, comparison count, live count and
// State, and posting lists that equal both the reference's with its
// tombstoned slots dropped and those FromState rebuilds from the
// linker's own State. The committed corpus under
// testdata/fuzz/FuzzIncrementalOps (three sequences of 2,500 ops, drawn
// from math/rand with seeds 1, 2 and 3) runs on every plain `go test`;
// `go test -fuzz FuzzIncrementalOps ./internal/linkage` explores.
func FuzzIncrementalOps(f *testing.F) {
	f.Add([]byte{0x00, 0, 0x01, 1, 0x02, 5, 0x81, 0, 0xe0, 0, 0x21, 1, 0xc0, 0, 0x61, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		src := &data.Source{ID: "s"}
		inc := NewIncremental(TitleTokenKey, incMatcher())
		ref := newRefIncremental(TitleTokenKey, incMatcher())
		inc.MaxBlock, ref.MaxBlock = fuzzMaxBlock, fuzzMaxBlock
		for i := 0; i+1 < len(ops); i += 2 {
			kind, id := ops[i]>>5, fmt.Sprintf("r%02d", ops[i]&(fuzzIDs-1))
			rec := fuzzRecord(ops, i)
			got, restore := fuzzOp(inc, src, ops, i, rec)
			want, _ := fuzzOp(ref, src, ops, i, rec)
			if restore {
				restored, err := FromState(inc.State(), TitleTokenKey, incMatcher())
				if err != nil {
					t.Fatalf("op %d: FromState of the linker's own State: %v", i/2, err)
				}
				restored.MaxBlock = fuzzMaxBlock
				inc = restored
			}
			if got != want {
				t.Fatalf("op %d (kind %d, %s): returned %s, the oracle %s", i/2, kind, id, got, want)
			}
			if a, b := inc.Clusters(), ref.Clusters(); !reflect.DeepEqual(a, b) {
				t.Fatalf("op %d (kind %d, %s): clusters\n%v\nthe oracle's\n%v", i/2, kind, id, a, b)
			}
			if inc.Comparisons() != ref.Comparisons() || inc.Len() != ref.Len() {
				t.Fatalf("op %d (kind %d, %s): comparisons/len %d/%d, the oracle's %d/%d", i/2, kind, id,
					inc.Comparisons(), inc.Len(), ref.Comparisons(), ref.Len())
			}
			if a, b := inc.State(), ref.State(); !reflect.DeepEqual(a, b) {
				t.Fatalf("op %d (kind %d, %s): State\n%+v\nthe oracle's\n%+v", i/2, kind, id, a, b)
			}
			if want := ref.livePostings(); !reflect.DeepEqual(inc.index, want) {
				t.Fatalf("op %d (kind %d, %s): postings %v, the oracle's live ones %v", i/2, kind, id, inc.index, want)
			}
			checkPostings(t, fmt.Sprintf("op %d (kind %d, %s)", i/2, kind, id), inc)
			if inc.uf.Len() != inc.Len() {
				t.Fatalf("op %d (kind %d, %s): forest tracks %d IDs for %d live records", i/2, kind, id, inc.uf.Len(), inc.Len())
			}
		}
	})
}

// livePostings returns the reference's posting lists with its
// tombstoned slots, and the keys they empty, dropped.
func (inc *refIncremental) livePostings() map[string][]string {
	live := map[string][]string{}
	for k, ids := range inc.index {
		for _, id := range ids {
			if _, gone := inc.dead[id]; !gone {
				live[k] = append(live[k], id)
			}
		}
	}
	return live
}

// scoreLogger is a title matcher that logs every pair it scores, with
// the score's bits. Embedding keeps ThresholdMatcher's comparator
// visible to the linker.
type scoreLogger struct {
	ThresholdMatcher
	log *[]string
}

func (m scoreLogger) Match(a, b *data.Record) (float64, bool) {
	s, ok := m.ThresholdMatcher.Match(a, b)
	*m.log = append(*m.log, fmt.Sprintf("%s~%s:%x", a.ID, b.ID, math.Float64bits(s)))
	return s, ok
}

// TestIncrementalIndexMatchesStrings replays the FuzzIncrementalOps
// corpus twice per matcher — a ThresholdMatcher, and the same under
// IdentifierFirst: through a linker whose matcher keeps an attached
// feature index current, so every comparison runs the set kernel over
// IDs interned at insert, and through one with the same matcher behind
// NoIndex, so every comparison tokenizes both titles. After every op the
// two return the same values and hold the same partition, Comparisons
// and State, and every pair either compared scored the same bits both
// ways. Every live pair also scores the same bits under the maintained
// index as under BuildFeatureIndex over the live records. Each sequence
// ends by deleting every ID and upserting two again. (The index does
// not renumber its dictionary itself; the stream that shares it does,
// and core's TestStreamDictionaryBound covers the renumbering.)
func TestIncrementalIndexMatchesStrings(t *testing.T) {
	files, err := filepath.Glob("testdata/fuzz/FuzzIncrementalOps/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus: %v, %d files", err, len(files))
	}
	reg := obs.NewRegistry()
	for _, m := range []struct {
		name string
		wrap func(Matcher) Matcher
	}{
		{"threshold", func(m Matcher) Matcher { return m }},
		{"identifier-first", func(m Matcher) Matcher { return IdentifierFirst{Exact: []string{"title"}, Matcher: m} }},
	} {
		wrap := m.wrap
		for _, file := range files {
			ops := readFuzzBytes(t, file)
			for id := byte(0); id < fuzzIDs; id++ {
				ops = append(ops, 4<<5|id, 0)
			}
			ops = append(ops, 0, 1, 1, 2)
			src := &data.Source{ID: "s"}
			var cachedLog, stringLog []string
			indexed := func() scoreLogger {
				m := incMatcher().(ThresholdMatcher)
				m.Comparator.AttachIndex(similarity.BuildFeatureIndex(nil, m.Comparator, 1))
				m.Comparator.AttachObs(reg)
				return scoreLogger{m, &cachedLog}
			}
			cachedM, stringM := indexed(), NoIndex(wrap(scoreLogger{incMatcher().(ThresholdMatcher), &stringLog}))
			cached, plain := NewIncremental(TitleTokenKey, wrap(cachedM)), NewIncremental(TitleTokenKey, stringM)
			cached.MaxBlock, plain.MaxBlock = fuzzMaxBlock, fuzzMaxBlock
			for i := 0; i+1 < len(ops); i += 2 {
				where := fmt.Sprintf("%s %s op %d", m.name, filepath.Base(file), i/2)
				rec := fuzzRecord(ops, i)
				got, restore := fuzzOp(cached, src, ops, i, rec)
				want, _ := fuzzOp(plain, src, ops, i, rec)
				if restore {
					cachedM = indexed()
					if cached, err = FromState(cached.State(), TitleTokenKey, wrap(cachedM)); err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					if plain, err = FromState(plain.State(), TitleTokenKey, stringM); err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					cached.MaxBlock, plain.MaxBlock = fuzzMaxBlock, fuzzMaxBlock
				}
				if got != want {
					t.Fatalf("%s: the indexed linker returned %s, the string one %s", where, got, want)
				}
				if !reflect.DeepEqual(cachedLog, stringLog) {
					t.Fatalf("%s: scored pairs\n%v\nthe string metric\n%v", where, cachedLog, stringLog)
				}
				cachedLog, stringLog = cachedLog[:0], stringLog[:0]
				if a, b := cached.Clusters(), plain.Clusters(); !reflect.DeepEqual(a, b) {
					t.Fatalf("%s: clusters\n%v\nthe string metric's\n%v", where, a, b)
				}
				if cached.Comparisons() != plain.Comparisons() {
					t.Fatalf("%s: %d comparisons, the string metric %d", where, cached.Comparisons(), plain.Comparisons())
				}
				if a, b := cached.State(), plain.State(); !reflect.DeepEqual(a, b) {
					t.Fatalf("%s: State\n%+v\nthe string metric's\n%+v", where, a, b)
				}
				live := cached.Dataset().Records()
				if idx := cachedM.Comparator.Index(); idx.Len() != len(live) {
					t.Fatalf("%s: the index holds %d records, the linker %d", where, idx.Len(), len(live))
				}
				built := incMatcher().(ThresholdMatcher).Comparator
				built.AttachIndex(similarity.BuildFeatureIndex(live, built, 1))
				for _, a := range live {
					for _, b := range live {
						if x, y := cachedM.Comparator.Compare(a, b), built.Compare(a, b); math.Float64bits(x) != math.Float64bits(y) {
							t.Fatalf("%s: %s~%s scores %v under the maintained index, %v under a built one", where, a.ID, b.ID, x, y)
						}
					}
				}
			}
		}
	}
	if n := reg.Counter("matching.uncached_compares").Value(); n != 0 {
		t.Errorf("the indexed linker scored %d pairs without its index", n)
	}
}

// readFuzzBytes reads a one-value []byte corpus file of the native
// fuzzing format.
func readFuzzBytes(t *testing.T, file string) []byte {
	t.Helper()
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(strings.TrimSpace(string(raw)), "\n", 2)
	if len(lines) != 2 || lines[0] != "go test fuzz v1" || !strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
		t.Fatalf("%s is not a one-value []byte corpus file", file)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	return []byte(s)
}
