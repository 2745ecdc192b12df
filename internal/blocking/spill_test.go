package blocking

import (
	"bufio"
	"cmp"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/datagen"
)

// TestRunReaderBlocks: a run round-trips through the block reader at
// lengths around and past one decode block, and a run cut mid-entry —
// inside the first block, or just past a block boundary — fails.
func TestRunReaderBlocks(t *testing.T) {
	dir := t.TempDir()
	bw := bufio.NewWriter(nil)
	for _, n := range []int{0, 1, runBlock - 1, runBlock, runBlock + 1, 3*runBlock + 5} {
		ents := make([]pe, n)
		for i := range ents {
			ents[i] = pe{code: uint64(i)<<32 | uint64(n-i), pos: uint64(3 * i)}
		}
		path, err := writeRun(bw, dir, fmt.Sprintf("r-%d.run", n), ents)
		if err != nil {
			t.Fatal(err)
		}
		got, err := readRun(path)
		if err != nil || !slices.Equal(got, ents) {
			t.Fatalf("%d entries: read %d back, err %v", n, len(got), err)
		}
		if n <= runBlock {
			continue
		}
		for _, size := range []int64{runBlock*peSize + 7, runBlock*peSize - 5, peSize / 2} {
			if err := os.Truncate(path, size); err != nil {
				t.Fatal(err)
			}
			if _, err := readRun(path); err == nil || !strings.Contains(err.Error(), "spill run") {
				t.Errorf("%d entries cut to %d bytes: err = %v, want a spill read error", n, size, err)
			}
		}
	}
}

// readRun reads a whole run file back.
func readRun(path string) ([]pe, error) {
	r, err := openRun(path)
	if err != nil {
		return nil, err
	}
	defer r.close()
	var got []pe
	for {
		e, ok, err := r.next()
		if err != nil || !ok {
			return got, err
		}
		got = append(got, e)
	}
}

// byCode orders entries by (code, pos): the order the radix sort and
// the loser-tree merge produce.
func byCode(a, b pe) int {
	if c := cmp.Compare(a.code, b.code); c != 0 {
		return c
	}
	return cmp.Compare(a.pos, b.pos)
}

// TestRadixSortMatchesByCode: on entries filled in ascending position,
// the radix sort gives exactly the (code, pos) comparison sort's order,
// whatever bytes the codes share or spread over.
func TestRadixSortMatchesByCode(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	fill := func(n int, code func(i int) uint64) []pe {
		ents := make([]pe, n)
		pos := uint64(rng.Intn(1000))
		for i := range ents {
			pos += 1 + uint64(rng.Intn(3))
			ents[i] = pe{code: code(i), pos: pos}
		}
		return ents
	}
	cases := map[string][]pe{
		"empty":     nil,
		"one entry": fill(1, func(int) uint64 { return 0xdeadbeef }),
		"all codes equal": fill(3000, func(int) uint64 {
			return 42<<32 | 7
		}),
		"one code with many positions": fill(3000, func(i int) uint64 {
			if i%3 != 0 {
				return 5<<32 | 9
			}
			return uint64(rng.Intn(64))<<32 | uint64(rng.Intn(1<<20))
		}),
		"full 64-bit range": fill(5000, func(int) uint64 { return rng.Uint64() }),
		"pair codes": fill(5000, func(int) uint64 {
			return pairCode(uint32(rng.Intn(300)), uint32(rng.Intn(300)))
		}),
	}
	var tmp []pe
	for name, ents := range cases {
		want := slices.Clone(ents)
		slices.SortFunc(want, byCode)
		got := slices.Clone(ents)
		tmp = radixSortPE(got, tmp)
		if !slices.Equal(got, want) {
			t.Errorf("%s: radix order differs from byCode", name)
		}
	}
}

// dupRecords is a corpus whose pairs repeat across blocks: each group
// of six shares five title words, and each two groups one more word,
// so raw pairs are several times the unique ones and the first
// occurrences interleave across blocks.
func dupRecords() []*data.Record {
	var recs []*data.Record
	for g := 0; g < 150; g++ {
		for i := 0; i < 6; i++ {
			title := fmt.Sprintf("g%da g%db g%dc g%dd g%de m%d", g, g, g, g, g, g/2)
			recs = append(recs, rec(fmt.Sprintf("r%04d-%d", g, i), title))
		}
	}
	return recs
}

// TestSpilledMatchesInMemoryByBuckets: the spilled set emits the
// in-memory sweep's codes, byte for byte, when its replay has one
// position bucket, two, or many, on a corpus with many duplicate
// pairs.
func TestSpilledMatchesInMemoryByBuckets(t *testing.T) {
	recs := dupRecords()
	want := NewEngineOpts(recs, Opts{Workers: 1}).Blocks(TokenKey("title")).CandidateSet().codes
	nraw := NewEngineOpts(recs, Opts{}).Blocks(TokenKey("title")).Comparisons()
	if nraw < 3*len(want) {
		t.Fatalf("%d raw pairs for %d unique: the corpus repeats too few", nraw, len(want))
	}
	for _, tc := range []struct {
		budget  int64
		buckets func(n int) bool
	}{
		{int64(peSize * nraw), func(n int) bool { return n == 1 }},
		{int64(peSize * ((nraw + 1) / 2)), func(n int) bool { return n == 2 }},
		{peSize * minRunEnts, func(n int) bool { return n > 4 }},
	} {
		for _, w := range []int{1, 2} {
			e := NewEngineOpts(recs, Opts{Workers: w, Shards: 3, PairMemBudget: tc.budget, SpillDir: t.TempDir()})
			cs := e.Blocks(TokenKey("title")).spillCandidates()
			if e.Err() != nil || !cs.Spilled() {
				t.Fatalf("budget %d: spilled %v, err %v", tc.budget, cs.Spilled(), e.Err())
			}
			if n := len(cs.ext.buckets); !tc.buckets(n) {
				t.Fatalf("budget %d: %d buckets", tc.budget, n)
			}
			var got []uint64
			if err := cs.EmitCodes(func(c uint64) bool { got = append(got, c); return true }); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Errorf("budget %d workers %d (%d buckets): %d spilled codes differ from %d in memory",
					tc.budget, w, len(cs.ext.buckets), len(got), len(want))
			}
			cs.Close()
		}
	}
}

// TestSpillReplayRejectsCorruptBuckets: a bucket holding a position
// twice, a position outside its range, or cut on an entry boundary (a
// clean end of file, one entry short) fails the replay with a spill
// read error that the engine records.
func TestSpillReplayRejectsCorruptBuckets(t *testing.T) {
	recs := dupRecords()
	for name, corrupt := range map[string]func(b posBucket, ents []pe) []pe{
		"duplicate position": func(_ posBucket, ents []pe) []pe {
			ents[1].pos = ents[0].pos
			return ents
		},
		"position out of range": func(b posBucket, ents []pe) []pe {
			ents[len(ents)-1].pos = b.hi
			return ents
		},
		"cut at an entry boundary": func(_ posBucket, ents []pe) []pe {
			return ents[:len(ents)-1]
		},
	} {
		e := NewEngineOpts(recs, Opts{PairMemBudget: peSize * minRunEnts, SpillDir: t.TempDir()})
		cs := e.Blocks(TokenKey("title")).CandidateSet()
		if !cs.Spilled() || len(cs.ext.buckets) < 2 {
			t.Fatalf("%s: the set did not spill into several buckets", name)
		}
		b := cs.ext.buckets[1]
		ents, err := readRun(b.path)
		if err != nil || len(ents) < 2 {
			t.Fatalf("%s: bucket holds %d entries, err %v", name, len(ents), err)
		}
		if _, err := writeRun(bufio.NewWriter(nil), cs.ext.dir, b.path[len(cs.ext.dir)+1:], corrupt(b, ents)); err != nil {
			t.Fatal(err)
		}
		err = cs.EmitCodes(func(uint64) bool { return true })
		if err == nil || !strings.Contains(err.Error(), "spill run") {
			t.Errorf("%s: replay err = %v, want a spill read error", name, err)
		}
		if e.Err() == nil {
			t.Errorf("%s: the engine did not record the replay error", name)
		}
		cs.Close()
	}
}

// BenchmarkSpillCandidates times spilled candidate generation and one
// full replay of the set over a tenth of the benchmark's link_scale
// corpus (35,000 records in groups of 8, 8 shards, 2 workers) at its
// budget: a quarter of the raw pair codes' 16 bytes each.
func BenchmarkSpillCandidates(b *testing.B) {
	recs := datagen.ScaleRecords(datagen.ScaleConfig{Seed: 42, NumRecords: 35_000, GroupSize: 8, Sources: 16})
	raw := int64(len(recs)) / 8 * 8 * 7 / 2
	opts := Opts{Workers: 2, Shards: 8, PairMemBudget: raw * 16 / 4, SpillDir: b.TempDir()}
	idx := NewEngineOpts(recs, opts).Blocks(TokenKey("title")).Purge(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs := idx.CandidateSet()
		n := 0
		if err := cs.EmitCodes(func(uint64) bool { n++; return true }); err != nil || !cs.Spilled() || n != cs.Len() {
			b.Fatalf("spilled %v, %d of %d codes, err %v", cs.Spilled(), n, cs.Len(), err)
		}
		cs.Close()
	}
}
