package parallel

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachCoversAll(t *testing.T) {
	var n int64
	hits := make([]int64, 1000)
	if err := ForEach(Config{Workers: 7}, 1000, func(i int) {
		atomic.AddInt64(&hits[i], 1)
		atomic.AddInt64(&n, 1)
	}); err != nil {
		t.Fatal(err)
	}
	if n != 1000 {
		t.Fatalf("ran %d of 1000", n)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}

// TestForEachDeterministicByIndex pins ForEach's contract for the
// matching stage: results written by index are identical for any
// worker count, even under heavily skewed per-item costs.
func TestForEachDeterministicByIndex(t *testing.T) {
	const n = 2000
	rng := rand.New(rand.NewSource(7))
	cost := make([]int, n)
	for i := range cost {
		if rng.Intn(20) == 0 {
			cost[i] = 2000 // rare hot items: skew the chunks
		} else {
			cost[i] = 10
		}
	}
	run := func(workers int) []int {
		out := make([]int, n)
		if err := ForEach(Config{Workers: workers}, n, func(i int) {
			acc := i
			for j := 0; j < cost[i]; j++ {
				acc = acc*31 + j
			}
			out[i] = acc
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	base := run(1)
	for _, w := range []int{4, runtime.NumCPU()} {
		if got := run(w); !reflect.DeepEqual(got, base) {
			t.Errorf("workers=%d: per-index results differ from sequential run", w)
		}
	}
}

func TestForEachSingleWorker(t *testing.T) {
	order := []int{}
	if err := ForEach(Config{Workers: 1}, 5, func(i int) { order = append(order, i) }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3, 4}) {
		t.Errorf("single worker must run in order, got %v", order)
	}
}

func TestMapSlice(t *testing.T) {
	in := []string{"a", "bb", "ccc"}
	out := Must(MapSlice(Config{Workers: 3}, in, func(s string) int { return len(s) }))
	if !reflect.DeepEqual(out, []int{1, 2, 3}) {
		t.Errorf("MapSlice = %v", out)
	}
	doubled := Must(MapSlice(Config{Workers: 2}, []int{1, 2, 3}, func(i int) int { return 2 * i }))
	if !reflect.DeepEqual(doubled, []int{2, 4, 6}) {
		t.Errorf("MapSlice over ints = %v", doubled)
	}
}

// TestForEachPair checks the triangular decode: every unordered pair
// (i, j), i < j, is visited exactly once, k is its lexicographic rank,
// and the visit set is identical for any worker count.
func TestForEachPair(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 20} {
		for _, w := range []int{1, 2, 8} {
			total := n * (n - 1) / 2
			if total < 0 {
				total = 0
			}
			got := make([][2]int, total)
			seen := make([]bool, total)
			if err := ForEachPair(Config{Workers: w}, n, func(k, i, j int) {
				if seen[k] {
					t.Fatalf("n=%d workers=%d: slot %d visited twice", n, w, k)
				}
				seen[k] = true
				got[k] = [2]int{i, j}
			}); err != nil {
				t.Fatal(err)
			}
			k := 0
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if !seen[k] || got[k] != [2]int{i, j} {
						t.Fatalf("n=%d workers=%d: slot %d = %v (seen=%v), want (%d,%d)",
							n, w, k, got[k], seen[k], i, j)
					}
					k++
				}
			}
		}
	}
}

// TestForEachPanicReturnsError is the crash-safety test: a panicking
// body must come back as a *PanicError from ForEach, for both the
// sequential and the parallel scheduler, with the panic value and a
// captured stack attached.
func TestForEachPanicReturnsError(t *testing.T) {
	for _, w := range []int{1, 8} {
		err := ForEach(Config{Workers: w}, 1000, func(i int) {
			if i == 437 {
				panic("poisoned record")
			}
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: want *PanicError, got %v", w, err)
		}
		if pe.Value != "poisoned record" {
			t.Errorf("workers=%d: panic value = %v", w, pe.Value)
		}
		if len(pe.Stack) == 0 {
			t.Errorf("workers=%d: no stack captured", w)
		}
		if !strings.Contains(pe.Error(), "poisoned record") {
			t.Errorf("workers=%d: Error() = %q", w, pe.Error())
		}
	}
}

// TestForEachCancelledBeforeStart pins the fast path: an already
// cancelled context returns immediately without running any index.
func TestForEachCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, w := range []int{1, 8} {
		var ran atomic.Int64
		err := ForEach(Config{Workers: w, Ctx: ctx}, 10000, func(i int) { ran.Add(1) })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: want context.Canceled, got %v", w, err)
		}
		if ran.Load() != 0 {
			t.Errorf("workers=%d: %d indexes ran under a pre-cancelled context", w, ran.Load())
		}
	}
}

// TestForEachCancelledMidRun cancels from inside the body and asserts
// the workers stop at the next chunk boundary: the context error comes
// back and a large tail of the index space never runs.
func TestForEachCancelledMidRun(t *testing.T) {
	const n = 1 << 20
	for _, w := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		err := ForEach(Config{Workers: w, Ctx: ctx}, n, func(i int) {
			if ran.Add(1) == 1 {
				cancel()
			}
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: want context.Canceled, got %v", w, err)
		}
		if got := ran.Load(); got > n/2 {
			t.Errorf("workers=%d: %d of %d indexes ran after cancellation", w, got, n)
		}
	}
}

// TestMapSliceDeadline pins that a context deadline aborts MapSlice
// with DeadlineExceeded rather than running to completion.
func TestMapSliceDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	in := make([]int, 1<<14)
	_, err := MapSlice(Config{Workers: 4, Ctx: ctx}, in, func(i int) int {
		time.Sleep(20 * time.Microsecond)
		return i
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
}

// TestMust pins the bridge semantics used by the value-only legacy
// call chains: nil error passes the value through, non-nil panics.
func TestMust(t *testing.T) {
	if got := Must(42, nil); got != 42 {
		t.Errorf("Must(42, nil) = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Must with an error must panic")
		}
	}()
	Must(0, errors.New("boom"))
}
