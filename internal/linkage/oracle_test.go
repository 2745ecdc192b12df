package linkage

import (
	"fmt"
	"math/bits"
	"reflect"
	"strings"
	"testing"

	"repro/internal/data"
)

// The op-sequence fuzz target. Two bytes make one op over a pool of 32
// record IDs and 210 titles; the first byte's top three bits pick the
// kind, its low five the ID, the second byte the title:
//
//	0-2  Upsert: an insert, an update of the same ID, or a revive
//	3    Insert: a duplicate-ID error when the ID is live, else as above
//	4-5  Delete: of a live, a never-inserted or an already-deleted ID
//	6    Compact (even title byte) or Delete of an ID outside the pool
//	7    State → FromState, and carry on with the restored linker
//
// A title is four of its family's eight tokens, and the matcher wants a
// token Jaccard of 0.6, so two titles link exactly when they share
// three tokens: a-b-c-d links to a-b-c-e and that to a-b-e-f, which
// does not link to the first. Components merge through such bridges
// and split again when a bridge is deleted or updated. MaxBlock is 6,
// below what a token's posting list reaches, so the stop-token gate
// opens and closes as tombstones come and go.
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

// FuzzIncrementalOps replays an op sequence into the linker and into the
// parent commit's (reference_test.go) and requires, after every op, the
// same return values, clustering, comparison count, live and tombstone
// counts and the same State. The committed corpus under
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
			rec := retractRecord(id, fuzzTitles[int(ops[i+1])%len(fuzzTitles)])
			var got, want string
			switch {
			case kind <= 2:
				m1, u1, err1 := inc.Upsert(src, rec)
				m2, u2, err2 := ref.Upsert(src, rec)
				got, want = fmt.Sprint(m1, u1, err1), fmt.Sprint(m2, u2, err2)
			case kind == 3:
				m1, err1 := inc.Insert(src, rec)
				m2, err2 := ref.Insert(src, rec)
				got, want = fmt.Sprint(m1, err1), fmt.Sprint(m2, err2)
			case kind == 6 && ops[i+1]%2 == 0:
				got, want = fmt.Sprint(inc.Compact()), fmt.Sprint(ref.Compact())
			case kind == 7:
				restored, err := FromState(inc.State(), TitleTokenKey, incMatcher())
				if err != nil {
					t.Fatalf("op %d: FromState of the linker's own State: %v", i/2, err)
				}
				restored.MaxBlock = fuzzMaxBlock
				inc = restored
			default:
				if kind == 6 {
					id = fmt.Sprintf("outsider%d", ops[i+1])
				}
				got, want = fmt.Sprint(inc.Delete(id)), fmt.Sprint(ref.Delete(id))
			}
			if got != want {
				t.Fatalf("op %d (kind %d, %s): returned %s, the oracle %s", i/2, kind, id, got, want)
			}
			if a, b := inc.Clusters(), ref.Clusters(); !reflect.DeepEqual(a, b) {
				t.Fatalf("op %d (kind %d, %s): clusters\n%v\nthe oracle's\n%v", i/2, kind, id, a, b)
			}
			if inc.Comparisons() != ref.Comparisons() || inc.Len() != ref.Len() || inc.Tombstones() != ref.Tombstones() {
				t.Fatalf("op %d (kind %d, %s): comparisons/len/tombstones %d/%d/%d, the oracle's %d/%d/%d", i/2, kind, id,
					inc.Comparisons(), inc.Len(), inc.Tombstones(), ref.Comparisons(), ref.Len(), ref.Tombstones())
			}
			if a, b := inc.State(), ref.State(); !reflect.DeepEqual(a, b) {
				t.Fatalf("op %d (kind %d, %s): State\n%+v\nthe oracle's\n%+v", i/2, kind, id, a, b)
			}
			if inc.uf.Len() != inc.Len() {
				t.Fatalf("op %d (kind %d, %s): forest tracks %d IDs for %d live records", i/2, kind, id, inc.uf.Len(), inc.Len())
			}
		}
	})
}
