package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/data"
)

// workers is pinned everywhere: the load is one process driving the
// system with at most two active goroutines on a two-core machine.
const workers = 2

// committedSeed is the seed the committed quality values were measured
// on; runs on it at full size are held to those values.
const committedSeed = 42

// minTimed is how many timed iterations a closed-loop run makes at
// least, however short its window.
const minTimed = 3

// env is what one run of one workload receives.
type env struct {
	seed    int64
	seconds float64 // length of the measurement window
	scale   float64 // input size as a share of the committed size (tests run far below 1)
	tr      *tracer // nil: tracing off
	tmpDir  string  // scratch space for spill runs and stream state
}

// size scales a committed input size, never below floor.
func (e *env) size(full, floor int) int {
	return max(floor, int(math.Round(float64(full)*e.scale)))
}

// windowOpen reports whether a closed loop that began its window at
// start and has made done timed iterations makes another.
func (e *env) windowOpen(start time.Time, done int) bool {
	return done < minTimed || time.Since(start).Seconds() < e.seconds
}

// result is what one run of one workload produces.
type result struct {
	Workload  string
	Attempted int // jobs, deltas, publishes, saves and HTTP requests
	Failed    int
	Problems  []string // correctness findings; any makes the run incorrect
	Warnings  []string // validity notes that do not fail the run
	Digest    uint64   // FNV-1a over the final output; equal for equal seeds
	Sizes     string   // the input as generated, for the record
	// Values holds everything the run measured with tracing off or on
	// alike, by name: the end-to-end metrics that exist on the workload and
	// the few further values the driver's generic names carry.
	Values   map[string]float64
	Samples  map[string]int     // samples behind each value
	PerLayer map[string]float64 // traced runs only
}

func (r *result) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// fail counts one failed operation.
func (r *result) fail(err error) {
	r.Failed++
	r.problem("operation failed: %v", err)
}

func (r *result) set(name string, value float64, samples int) {
	r.Values[name] = value
	r.Samples[name] = samples
}

// sameDigest records the digest of one iteration and reports a problem
// when iterations of one run disagree.
func (r *result) sameDigest(d uint64) {
	if r.Digest != 0 && r.Digest != d {
		r.problem("result digest %016x differs from an earlier iteration's %016x", d, r.Digest)
	}
	r.Digest = d
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// loop says who drives the system and how.
	loop string
	// driver says which of the run's values each of the driver's six
	// generic metrics carries on this workload.
	driver map[string]string
	// overhead names the end-to-end metric whose traced-against-untraced
	// difference is reported as the workload's tracing overhead.
	overhead string
	// The workload's quality metric is driver["quality_ratio"]. A run on
	// any seed is incorrect below qualityFloor (under the lowest value seen
	// on thirty-two seeds); a full-size run on committedSeed is incorrect below
	// quality42, the value measured at this commit, less the metric's bound.
	qualityFloor, quality42 float64
	run                     func(*env, *result) error
}

var workloads = []workload{batchWide, linkScale, streamChurn, serveLive}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runWorkload runs one workload once and applies the correctness gate.
func runWorkload(w workload, e *env) (*result, error) {
	r := &result{Workload: w.name, Values: map[string]float64{}, Samples: map[string]int{}}
	if e.tr != nil {
		r.PerLayer = map[string]float64{}
	}
	if err := w.run(e, r); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if r.Attempted == 0 {
		r.problem("no operation was attempted")
	}
	r.set("failed_ratio", float64(r.Failed)/float64(max(1, r.Attempted)), r.Attempted)

	quality := w.driver["quality_ratio"]
	q, floor := r.Values[quality], w.qualityFloor
	if e.seed == committedSeed && e.scale == 1 {
		floor = w.quality42 - findMetric(quality).Bound
	}
	if q < floor {
		r.problem("%s %.4f is below %.4f", quality, q, floor)
	}
	for _, m := range driverMetrics {
		if v, ok := r.Values[w.driver[m.Name]]; !ok || v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			r.problem("%s (the driver's %s) is missing or not a positive number (%v)", w.driver[m.Name], m.Name, v)
		}
	}
	if r.PerLayer != nil {
		for _, m := range perLayer {
			v, ok := r.PerLayer[m.Name]
			if !ok {
				r.PerLayer[m.Name] = 0 // a layer idle on this workload reports 0
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				r.problem("per-layer metric %s is not finite", m.Name)
			}
		}
	}
	return r, nil
}

// closedJobs is the loop of the two batch workloads: job once to warm up,
// which ends the set-up that began at began, then one job at a time until
// the window is over. It books the jobs' end-to-end metrics and returns
// how many were timed and, when tracing is on, the runtime's work per job.
func closedJobs(e *env, r *result, began time.Time, records int, job func(op int) error) (timed int, mem memDelta) {
	r.Attempted++
	if err := job(0); err != nil {
		r.fail(err)
		return 0, mem
	}
	r.set("setup_s", time.Since(began).Seconds(), 1)

	heap := startHeapWatch()
	defer heap.close()
	mark := markMem(e.tr)
	var ms, heapMB []float64
	for start := time.Now(); e.windowOpen(start, len(ms)); {
		heap.takeMB()
		t0 := time.Now()
		err := job(1 + len(ms))
		ms = append(ms, float64(time.Since(t0))/1e6)
		heapMB = append(heapMB, heap.takeMB())
		r.Attempted++
		if err != nil {
			r.fail(err)
			break
		}
	}
	r.set("job_s", median(ms)/1e3, len(ms))
	r.set("job_ms", median(ms), len(ms))
	r.set("job_tail_ms", tail(ms), len(ms))
	r.set("records_per_s", float64(records*len(ms))/(sum(ms)/1e3), len(ms))
	r.set("peak_heap_mb", median(heapMB), len(heapMB))
	return len(ms), mark.per(float64(len(ms)))
}

// jobDriver is the driver table of the two batch workloads. A window
// holds about five jobs, too few for any percentile to have ten samples
// beyond it, so their tail is the slowest of them.
var jobDriver = map[string]string{
	"setup_s": "setup_s", "op_p50_ms": "job_ms", "op_tail_ms": "job_tail_ms",
	"work_per_s": "records_per_s", "peak_heap_mb": "peak_heap_mb", "quality_ratio": "link_f1",
}

// timedSpans finishes the trace and returns the spans of the timed jobs:
// the warm-up job is op 0 and stays out of the per-job means.
func timedSpans(tr *tracer) []span {
	var timed []span
	for _, s := range tr.finish() {
		if s.Op > 0 {
			timed = append(timed, s)
		}
	}
	return timed
}

func (r *result) runtimeLayer(mem memDelta) {
	r.PerLayer["runtime.alloc_mb"] = mem.allocMB
	r.PerLayer["runtime.gc_cycles"] = mem.gcCycles
	r.PerLayer["runtime.gc_pause_ms"] = mem.gcPauseMs
}

// snapshotDigest hashes a snapshot's entities: IDs, titles and fused
// values in entity order, attributes sorted.
func snapshotDigest(s *core.Snapshot) uint64 {
	h := fnv.New64a()
	for _, e := range s.Entities() {
		hashString(h, e.ID)
		hashString(h, e.Title)
		attrs := make([]string, 0, len(e.Values))
		for a := range e.Values {
			attrs = append(attrs, a)
		}
		sort.Strings(attrs)
		for _, a := range attrs {
			hashString(h, a)
			hashString(h, e.Values[a].Key())
		}
	}
	return h.Sum64()
}

// clusteringDigest hashes a canonical (normalized) clustering.
func clusteringDigest(c data.Clustering) uint64 {
	h := fnv.New64a()
	for _, cl := range c {
		for _, id := range cl {
			hashString(h, id)
		}
		h.Write([]byte{1})
	}
	return h.Sum64()
}

func hashString(h hash.Hash64, s string) {
	h.Write([]byte(s))
	h.Write([]byte{0})
}
