package blocking

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestRunReaderBlocks: a run round-trips through the block reader at
// lengths around and past one decode block, and a run cut mid-entry —
// inside the first block, or just past a block boundary — fails.
func TestRunReaderBlocks(t *testing.T) {
	dir := t.TempDir()
	read := func(path string) ([]pe, error) {
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
	for _, n := range []int{0, 1, runBlock - 1, runBlock, runBlock + 1, 3*runBlock + 5} {
		ents := make([]pe, n)
		for i := range ents {
			ents[i] = pe{code: uint64(i)<<32 | uint64(n-i), pos: uint64(3 * i)}
		}
		path, err := writeRun(dir, fmt.Sprintf("r-%d.run", n), ents)
		if err != nil {
			t.Fatal(err)
		}
		got, err := read(path)
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
			if _, err := read(path); err == nil || !strings.Contains(err.Error(), "spill run") {
				t.Errorf("%d entries cut to %d bytes: err = %v, want a spill read error", n, size, err)
			}
		}
	}
}
