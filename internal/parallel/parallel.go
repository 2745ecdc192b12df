// Package parallel is the deterministic fan-out substrate every
// parallel stage runs on: an index loop (ForEach, ForEachPair,
// MapSlice) and a shard planner with an ordered reduce (WeightedRanges,
// ReduceShards) over a bounded goroutine pool.
//
// Every entry point is generic and allocation-conscious: no values are
// boxed through interface{}, and work is handed out in dynamic chunks
// so skewed item costs cannot strand a worker. All results are
// deterministic: identical output for any worker count.
//
// Entry points return an error instead of crashing: a panic inside a
// worker function is recovered into a *PanicError, and a Config.Ctx
// cancellation is observed at chunk boundaries, so a stuck or poisoned
// stage unwinds cleanly instead of taking the process down.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Config controls a job run.
type Config struct {
	Workers int             // default runtime.NumCPU()
	Obs     *obs.Registry   // optional scheduling metrics ("parallel." namespace); nil disables
	Ctx     context.Context // optional cancellation; nil means never cancelled
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.NumCPU()
}

// PanicError is the error returned when a worker function panics. The
// panic is recovered at the chunk boundary and surfaced to the caller,
// so one poisoned record cannot crash the whole process. Value holds
// the recovered panic value and Stack the worker stack captured at
// recovery time.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: worker panic: %v", e.Value)
}

// ctxErr reports the cancellation state of an optional context.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// runChunk applies f to [start, end) with panic recovery — one
// defer/recover per chunk, never per item, so the hot loop stays free
// of per-index overhead.
func runChunk(f func(i int), start, end int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	for i := start; i < end; i++ {
		f(i)
	}
	return nil
}

// Must unwraps a (value, error) result on infallible paths: callers
// that configure no Ctx and trust f not to panic keep their value-only
// call chains, and an unexpected error escalates to a panic instead of
// being silently dropped.
func Must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// ForEach applies f to every index in [0,n) using the configured number
// of workers, blocking until done. Work is handed out in dynamically
// sized chunks from a shared counter, so skewed per-index costs (large
// blocks) rebalance across workers instead of stranding one on a
// static range. Each index is visited exactly once;
// callers writing results by index get deterministic output for any
// worker count.
//
// A nil return means every index ran. When Config.Ctx is cancelled the
// workers stop at the next chunk boundary and the context error is
// returned; when f panics the panic is recovered into a *PanicError,
// the remaining workers drain, and the error is returned. In both
// cases some indexes may not have run — callers must discard partial
// results on error.
func ForEach(cfg Config, n int, f func(i int)) error {
	if n <= 0 {
		return nil
	}
	reg := obs.OrDefault(cfg.Obs)
	reg.Counter("parallel.foreach_calls").Inc()
	reg.Counter("parallel.tasks").Add(int64(n))
	ctx := cfg.Ctx
	w := cfg.workers()
	if w > n {
		w = n
	}
	// ~8 hand-outs per worker: tail imbalance bounded by ~1/(8w) of the
	// work while keeping shared-counter traffic negligible. The chunk is
	// also the cancellation granularity.
	chunk := n / (8 * w)
	if chunk < 1 {
		chunk = 1
	}
	if w <= 1 {
		for start := 0; start < n; start += chunk {
			if err := ctxErr(ctx); err != nil {
				reg.Counter("parallel.cancelled").Inc()
				return err
			}
			end := start + chunk
			if end > n {
				end = n
			}
			if err := runChunk(f, start, end); err != nil {
				return err
			}
		}
		return nil
	}
	chunks := reg.Counter("parallel.chunks")
	busy := reg.Timer("parallel.worker_busy")
	var next atomic.Int64
	var stop atomic.Bool
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		stop.Store(true)
	}
	var wg sync.WaitGroup
	for p := 0; p < w; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Per-worker accumulation: one counter Add and one timer
			// Observe per worker, not per chunk, keeps the shared
			// metric traffic off the hand-out loop.
			var t0 time.Time
			if busy != nil {
				t0 = time.Now()
			}
			taken := int64(0)
			for !stop.Load() {
				if err := ctxErr(ctx); err != nil {
					fail(err)
					break
				}
				end := int(next.Add(int64(chunk)))
				start := end - chunk
				if start >= n {
					break
				}
				taken++
				if end > n {
					end = n
				}
				if err := runChunk(f, start, end); err != nil {
					fail(err)
					break
				}
			}
			chunks.Add(taken)
			if busy != nil {
				busy.Observe(time.Since(t0))
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		if _, ok := firstErr.(*PanicError); !ok {
			reg.Counter("parallel.cancelled").Inc()
		}
	}
	return firstErr
}

// ForEachPair applies f to every unordered pair (i, j), i < j, drawn
// from [0,n), in parallel. k is the pair's rank in lexicographic (i, j)
// order — callers write results to slot k for deterministic assembly.
// The triangular flat index is decoded per pair by binary search on the
// row-start offsets, so work is handed out with the same dynamic
// chunking as ForEach and a skewed row cannot strand a worker. Errors
// propagate exactly as in ForEach.
func ForEachPair(cfg Config, n int, f func(k, i, j int)) error {
	if n < 2 {
		return nil
	}
	// rowStart(i) = number of pairs whose first element precedes i.
	rowStart := func(i int) int { return i * (2*n - i - 1) / 2 }
	total := rowStart(n - 1)
	return ForEach(cfg, total, func(k int) {
		lo, hi := 0, n-2
		for lo < hi {
			mid := int(uint(lo+hi+1) >> 1)
			if rowStart(mid) <= k {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		f(k, lo, lo+1+(k-rowStart(lo)))
	})
}

// WeightedRanges splits the n items described by the prefix-sum slice
// cum (len n+1, cum[i] = total weight of items [0,i)) into at most
// shards contiguous ranges of roughly equal weight. Boundaries are
// chosen by binary search on the cumulative weight, so they depend only
// on (cum, shards) — never on worker count or scheduling — and empty
// ranges are dropped. This is the shard planner for stages whose
// per-item cost is known up front (pair generation over blocks, where
// the weight of a block is its pair count).
func WeightedRanges(cum []int, shards int) [][2]int {
	n := len(cum) - 1
	if n <= 0 {
		return nil
	}
	total := cum[n]
	if shards < 1 {
		shards = 1
	}
	if shards > n {
		shards = n
	}
	if total <= 0 {
		// All items weightless: fall back to equal item counts so the
		// items are still covered exactly once.
		out := make([][2]int, 0, shards)
		for s := 0; s < shards; s++ {
			lo, hi := n*s/shards, n*(s+1)/shards
			if lo < hi {
				out = append(out, [2]int{lo, hi})
			}
		}
		return out
	}
	out := make([][2]int, 0, shards)
	lo := 0
	for s := 1; s <= shards; s++ {
		target := total * s / shards
		// First index whose cumulative weight reaches the target: the
		// shard boundary lands on an item edge, never inside an item.
		hi, _ := slices.BinarySearch(cum[lo:], target)
		hi += lo
		if hi > n {
			hi = n
		}
		if s == shards {
			hi = n
		}
		if lo < hi {
			out = append(out, [2]int{lo, hi})
			lo = hi
		}
	}
	return out
}

// ReduceShards runs m over each [lo, hi) range in parallel on the
// bounded pool, then reduces the shard outputs sequentially in shard
// order — the deterministic cross-shard merge used by the sharded
// blocking engine. The map phase inherits cfg's workers, metrics and
// cancellation; the reduce phase runs on the calling goroutine, so r
// needs no synchronisation and its side effects happen in shard order
// for any worker count. The first error (cancellation, worker panic,
// or an error returned by r) aborts the job.
func ReduceShards[T any](cfg Config, ranges [][2]int, m func(shard, lo, hi int) T, r func(shard int, v T) error) error {
	outs := make([]T, len(ranges))
	if err := ForEach(cfg, len(ranges), func(s int) {
		outs[s] = m(s, ranges[s][0], ranges[s][1])
	}); err != nil {
		return err
	}
	for s, v := range outs {
		if err := r(s, v); err != nil {
			return err
		}
	}
	return nil
}

// MapSlice applies f to every element of a slice in parallel and
// returns outputs in input order. On error the partial output is
// discarded.
func MapSlice[I, O any](cfg Config, in []I, f func(item I) O) ([]O, error) {
	out := make([]O, len(in))
	if err := ForEach(cfg, len(in), func(i int) { out[i] = f(in[i]) }); err != nil {
		return nil, err
	}
	return out, nil
}
