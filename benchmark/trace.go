package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded by
// the harness only, around its calls into a layer's public functions;
// the program under test carries no benchmark code.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list, -1 for a root
	Op     int    `json:"op"`     // one id per job, publish or request
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer is the
// untraced run: every method is a no-op, so workloads call it
// unconditionally.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex // serve_live records from the client and the writer
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 when tracing is off).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes a span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return time.Duration(now - t.spans[id].Start)
}

// child records a span whose duration the program reported itself (a
// pipeline stage), laid inside parent starting at offset.
func (t *tracer) child(name string, parent int, offset, dur time.Duration) int {
	if t == nil || parent < 0 {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent]
	start := p.Start + int64(offset)
	t.spans = append(t.spans, span{Name: name, Start: start, End: start + int64(dur), Parent: parent, Op: p.Op})
	return len(t.spans) - 1
}

// finish computes every span's self time: its duration minus the part
// of it that its children cover.
func (t *tracer) finish() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return t.spans[ks[a]].Start < t.spans[ks[b]].Start })
		covered, upto := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(t.spans[k].Start, upto), min(t.spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				upto = hi
			}
		}
		s.Self = (s.End - s.Start) - covered
	}
	return t.spans
}

// total sums the durations of the spans with this name, in seconds.
func total(spans []span, name string) float64 {
	ns := int64(0)
	for _, s := range spans {
		if s.Name == name {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

// writeTrace stores the spans as <dir>/trace_<workload>.json.
func writeTrace(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(map[string]any{"workload": workload, "spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace_"+workload+".json"), buf, 0o644)
}

// heapWatch samples the live heap (bytes the last GC cycle marked) every
// 5 ms and keeps the maximum seen since the last reset.
type heapWatch struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

func startHeapWatch() *heapWatch {
	w := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
				metrics.Read(sample)
				if sample[0].Value.Kind() == metrics.KindUint64 {
					w.mu.Lock()
					w.peak = max(w.peak, sample[0].Value.Uint64())
					w.mu.Unlock()
				}
			}
		}
	}()
	return w
}

// takeMB returns the peak in MB since the previous take and resets it.
func (w *heapWatch) takeMB() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	p := w.peak
	w.peak = 0
	return float64(p) / (1 << 20)
}

func (w *heapWatch) close() {
	close(w.stop)
	<-w.done
}

// memDelta is the Go runtime's work over a stretch of a run.
type memDelta struct{ allocMB, gcCycles, gcPauseMs float64 }

// memMark is the runtime's counters at one point of a traced run.
type memMark struct{ ms runtime.MemStats }

// markMem reads the counters when tracing is on (ReadMemStats stops the
// world, so untraced runs skip it and get a nil mark).
func markMem(tr *tracer) *memMark {
	if tr == nil {
		return nil
	}
	m := &memMark{}
	runtime.ReadMemStats(&m.ms)
	return m
}

// per is the runtime's work since the mark, divided over n operations.
func (m *memMark) per(n float64) memDelta {
	if m == nil || n == 0 {
		return memDelta{}
	}
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	return memDelta{
		allocMB:   float64(now.TotalAlloc-m.ms.TotalAlloc) / (1 << 20) / n,
		gcCycles:  float64(now.NumGC-m.ms.NumGC) / n,
		gcPauseMs: float64(now.PauseTotalNs-m.ms.PauseTotalNs) / 1e6 / n,
	}
}
