package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/serve"
	"repro/internal/source"
)

// Committed input size and schedule of serve_live (see BENCHMARK.json):
// the issue's, with both phases cut to fit one 20 s window.
const (
	serveLiveEntities = 5000
	serveLiveSources  = 20
	// servePreloadShare of each source is streamed in before the server
	// starts. The rest feeds the live phase one record per source per
	// epoch, so that every epoch is the same size: a fifth of the smallest
	// source is 70-90 records against the 60 epochs of a 20 s run.
	servePreloadShare  = 0.8
	servePreloadEpoch  = 8 // records per source per preload epoch
	serveLiveEpoch     = 1 // records per source per live epoch
	serveEpochInterval = 250 * time.Millisecond
	servePublishEvery  = 10 // live epochs per publish
	serveWarmRequests  = 50
	serveQuietShare    = 1.0 / 4
	serveDirectSample  = 2000 // requests replayed as direct Snapshot calls in a traced run
)

var serveLive = workload{
	name: "serve_live",
	why:  "bdiserve -stream: HTTP reads beside stream writes on one snapshot of 5000 entities x 20 sources; a faster query kernel moves both phases, a cheaper publish only the live-phase tail, rate and freshness",
	loop: "quiet phase: closed loop, 1 keep-alive client; live phase: the same client plus 1 writer applying epochs open loop every 250 ms, timed from the due time, publishing every 10 epochs",
	// The driver's tail is the live p95, not the p99: whenever the sandbox
	// runs a tenth slower, publishes overlap more requests and the p99
	// moves by a third (spread 14-20% over sets of ten seeds, 26% over seven
	// runs of one seed, against 6-16% for the p95), which the driver's 25%
	// cannot hold.
	driver: map[string]string{
		"setup_s": "setup_s", "op_p50_ms": "query_p50_ms", "op_tail_ms": "live_query_p95_ms",
		"work_per_s": "live_qps", "peak_heap_mb": "live_peak_heap_mb", "quality_ratio": "search_hit_ratio",
	},
	overhead:     "query_p50_ms",
	qualityFloor: 0.90,
	quality42:    1,
	run:          runServeLive,
}

// The request mix, in percent; the order fixes the seeded sequence.
const (
	kindSearch = iota
	kindResolve
	kindEntity
	kindSimilar
	numKinds
)

var (
	kindNames = [numKinds]string{"search", "resolve", "entity", "similar"}
	kindShare = [numKinds]int{40, 30, 20, 10}
)

// served is one set-up: a stream preloaded and published into a server.
type served struct {
	stream *core.Stream
	srv    *serve.Server
	http   *httptest.Server
	web    *datagen.Web
	metas  map[string]*data.Source
	marks  map[string]int // per source, how many records the preload took
}

func (s *served) close() {
	s.http.Close()
	s.srv.Close()
}

func setupServed(ctx context.Context, e *env) (*served, error) {
	s := &served{web: wideWeb(e.seed, e.size(serveLiveEntities, 400), serveLiveSources)}
	d := s.web.Dataset
	s.metas, s.marks = map[string]*data.Source{}, map[string]int{}
	for _, src := range d.Sources() {
		s.metas[src.ID] = src
		s.marks[src.ID] = int(servePreloadShare * float64(len(d.SourceRecords(src.ID))))
	}
	var err error
	s.stream, err = core.NewStream(core.StreamConfig{Workers: workers}, func(snap *core.Snapshot) {
		if s.srv != nil {
			s.srv.Publish(snap)
		}
	})
	if err != nil {
		return nil, err
	}
	str, err := source.NewStreamer(ctx, source.FromDataset(d), source.StreamConfig{EpochSize: servePreloadEpoch, Totals: s.marks})
	if err != nil {
		return nil, err
	}
	defer str.Close()
	for ep := range str.C {
		if err := s.stream.ApplyEpoch(s.metas, ep); err != nil {
			return nil, err
		}
	}
	if err := str.Err(); err != nil {
		return nil, err
	}
	snap, err := s.stream.Publish(ctx)
	if err != nil {
		return nil, err
	}
	if s.srv, err = serve.New(snap, nil, serve.Config{}); err != nil {
		return nil, err
	}
	s.http = httptest.NewServer(s.srv.Handler())
	return s, nil
}

// client is the one keep-alive HTTP client of the workload.
type client struct {
	http   *http.Client
	base   string
	rng    *rand.Rand
	target []*core.Entity // the preloaded snapshot's entities: what requests ask about
}

// next draws the next request of the seeded sequence.
func (c *client) next() (kind int, ent *core.Entity) {
	p := c.rng.Intn(100)
	for kind = 0; p >= kindShare[kind]; kind++ {
		p -= kindShare[kind]
	}
	return kind, c.target[c.rng.Intn(len(c.target))]
}

// reply is the part of any response body the harness checks.
type reply struct {
	ID   string `json:"id"`
	Hits []struct {
		ID string `json:"id"`
	} `json:"hits"`
}

// do sends one request and reads the whole reply. status is 0 on a
// transport error.
func (c *client) do(kind int, ent *core.Entity) (status int, rep reply, err error) {
	var resp *http.Response
	switch kind {
	case kindSearch:
		resp, err = c.http.Get(c.base + "/search?limit=10&q=" + url.QueryEscape(ent.Title))
	case kindResolve:
		body, _ := json.Marshal(map[string]any{"values": map[string]string{"title": ent.Title}, "k": 5})
		resp, err = c.http.Post(c.base+"/resolve", "application/json", bytes.NewReader(body))
	case kindEntity:
		resp, err = c.http.Get(c.base + "/entities/" + ent.ID)
	default:
		resp, err = c.http.Get(c.base + "/similar/" + ent.ID + "?k=5")
	}
	if err != nil {
		return 0, rep, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, rep, err
	}
	if resp.StatusCode == http.StatusOK {
		err = json.Unmarshal(body, &rep)
	}
	return resp.StatusCode, rep, err
}

// direct makes the same query as do, straight against the snapshot.
func direct(snap *core.Snapshot, kind int, ent *core.Entity) error {
	var err error
	switch kind {
	case kindSearch:
		_, err = snap.Search(ent.Title, 10)
	case kindResolve:
		_, err = snap.Resolve(data.NewRecord("__query__", "__client__").Set("title", data.Parse(ent.Title)), 5)
	case kindEntity:
		if _, ok := snap.Entity(ent.ID); !ok {
			err = core.ErrNoSuchEntity
		}
	default:
		_, err = snap.Similar(ent.ID, 5)
	}
	return err
}

// phaseStats collects one phase's client-side round trips, in ms.
type phaseStats struct {
	ms     []float64
	byKind [numKinds][]float64
}

func runServeLive(e *env, r *result) error {
	ctx := context.Background()
	began := time.Now()
	s, err := setupServed(ctx, e)
	if err != nil {
		return err
	}
	defer s.close()
	r.Digest = snapshotDigest(s.srv.Snapshot())
	d := s.web.Dataset
	r.Sizes = fmt.Sprintf("%d entities, %d sources, %d records, %d preloaded into %d served entities",
		len(s.web.World.Entities), serveLiveSources, d.NumRecords(), s.stream.Ingested(), s.srv.Snapshot().Len())

	c := &client{
		http:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		base:   s.http.URL,
		rng:    rand.New(rand.NewSource(e.seed)),
		target: s.srv.Snapshot().Entities(),
	}
	defer c.http.CloseIdleConnections()

	stale := 0
	// request sends the next request of the sequence and books it.
	request := func(ps *phaseStats, live bool, op int, onSearch func(hit bool)) {
		kind, ent := c.next()
		sp := e.tr.begin("serve."+kindNames[kind], -1, op)
		t0 := time.Now()
		status, rep, err := c.do(kind, ent)
		ms := float64(time.Since(t0)) / 1e6
		e.tr.end(sp)
		r.Attempted++
		ps.ms = append(ps.ms, ms)
		ps.byKind[kind] = append(ps.byKind[kind], ms)
		switch {
		case err != nil:
			r.fail(fmt.Errorf("%s %s: %w", kindNames[kind], ent.ID, err))
		case live && status == http.StatusNotFound && kind >= kindEntity:
			stale++ // the entity numbering moved under an id-addressed request: counted apart
		case status != http.StatusOK:
			r.fail(fmt.Errorf("%s %s: status %d", kindNames[kind], ent.ID, status))
		case kind == kindEntity && !live && rep.ID != ent.ID:
			r.fail(fmt.Errorf("entity %s: got %q", ent.ID, rep.ID))
		case kind == kindSearch && onSearch != nil:
			hit := false
			for _, h := range rep.Hits {
				hit = hit || h.ID == ent.ID
			}
			onSearch(hit)
		}
	}

	// Warm the connection and the handlers' lazy state: the end of set-up.
	warm := &phaseStats{}
	for i := 0; i < serveWarmRequests; i++ {
		request(warm, false, 0, nil)
	}
	r.set("setup_s", time.Since(began).Seconds(), 1)

	// Quiet phase: reads only.
	quiet := &phaseStats{}
	searches, hits := 0, 0
	op := 1
	for quietStart := time.Now(); time.Since(quietStart).Seconds() < e.seconds*serveQuietShare; op++ {
		request(quiet, false, op, func(hit bool) {
			searches++
			if hit {
				hits++
			}
		})
	}

	// Direct calls with the same inputs, for the per-layer split of a request.
	var directUs [numKinds][]float64
	if e.tr != nil {
		replay := &client{rng: rand.New(rand.NewSource(e.seed)), target: c.target}
		snap := s.srv.Snapshot()
		for i := 0; i < min(serveDirectSample, len(quiet.ms)+50); i++ {
			kind, ent := replay.next()
			t0 := time.Now()
			if err := direct(snap, kind, ent); err != nil {
				r.problem("direct %s %s: %v", kindNames[kind], ent.ID, err)
			}
			directUs[kind] = append(directUs[kind], float64(time.Since(t0))/1e3)
		}
	}

	// Live phase: the same client beside one writer.
	liveSeconds := e.seconds * (1 - serveQuietShare)
	str, err := source.NewStreamer(ctx, source.FromDataset(d), source.StreamConfig{
		EpochSize: serveLiveEpoch, Totals: source.Totals(d), Cursors: s.marks, StartSeq: s.stream.Epoch(),
	})
	if err != nil {
		return err
	}
	defer str.Close()
	type writerStats struct {
		lateMs, freshMs, publishMs []float64
		ops, failed                int // ops: epochs applied and publishes made
		err                        error
	}
	var (
		ws         writerStats
		writerDone = make(chan struct{})
	)
	heap := startHeapWatch()
	defer heap.close()
	mark := markMem(e.tr)
	swaps0 := s.srv.Swaps()
	liveStart := time.Now()
	// The writer stops when the window is over or the stream is drained,
	// whichever comes first, and the client stops with it.
	go func() {
		defer close(writerDone)
		for n := 0; ; n++ {
			due := liveStart.Add(time.Duration(n) * serveEpochInterval)
			if due.Sub(liveStart).Seconds() >= liveSeconds {
				return
			}
			ep, ok := <-str.C
			if !ok {
				return
			}
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
				ws.lateMs = append(ws.lateMs, float64(time.Since(due))/1e6)
			}
			wop := -1 - n // writer ops count down, client ops count up
			sp := e.tr.begin("linkage.incr_apply", -1, wop)
			err := s.stream.ApplyEpoch(s.metas, ep)
			e.tr.end(sp)
			ws.ops++
			if err == nil && (n+1)%servePublishEvery == 0 {
				sp = e.tr.begin("core.publish", -1, wop)
				t0 := time.Now()
				_, err = s.stream.Publish(ctx) // the publish sink swaps the server's snapshot
				ws.publishMs = append(ws.publishMs, float64(time.Since(t0))/1e6)
				e.tr.end(sp)
				ws.freshMs = append(ws.freshMs, float64(time.Since(due))/1e6)
				ws.ops++
			}
			if err != nil {
				ws.failed++
				ws.err = err
				return
			}
		}
	}()
	live := &phaseStats{}
	for running := true; running; op++ {
		request(live, true, op, nil)
		select {
		case <-writerDone:
			running = false
		default:
		}
	}
	liveLength := time.Since(liveStart).Seconds()
	heapMB := heap.takeMB()
	r.Attempted += ws.ops
	if ws.err != nil {
		r.Failed += ws.failed
		r.problem("writer: %v", ws.err)
	}
	if err := str.Err(); err != nil {
		r.fail(err)
	}
	if len(ws.freshMs) == 0 {
		r.problem("the live phase (%.1fs) was too short for a single publish", liveSeconds)
	}
	late := 0
	for _, ms := range ws.lateMs {
		if ms > 50 {
			late++
		}
	}
	if late*20 > len(ws.lateMs) {
		r.Warnings = append(r.Warnings, fmt.Sprintf(
			"the epoch generator woke more than 50 ms late on %d of %d epochs: the machine was busy, live-phase numbers are suspect", late, len(ws.lateMs)))
	}

	r.set("query_p50_ms", median(quiet.ms), len(quiet.ms))
	r.set("query_p99_ms", tail(quiet.ms), len(quiet.ms))
	r.set("live_query_p99_ms", tail(live.ms), len(live.ms))
	r.set("live_query_p95_ms", quantile(live.ms, 0.95), len(live.ms))
	r.set("live_qps", float64(len(live.ms))/liveLength, len(live.ms))
	r.set("freshness_p50_ms", median(ws.freshMs), len(ws.freshMs))
	r.set("live_peak_heap_mb", heapMB, 1)
	r.set("search_hit_ratio", float64(hits)/float64(max(1, searches)), searches)

	if e.tr != nil {
		r.runtimeLayer(mark.per(1))
		spans := e.tr.finish()
		overhead, weight := 0.0, 0.0
		for k := 0; k < numKinds; k++ {
			r.PerLayer["serve."+kindNames[k]+"_p50_ms"] = median(quiet.byKind[k])
			r.PerLayer["core."+kindNames[k]+"_us"] = median(directUs[k])
			overhead += float64(kindShare[k]) * (1e3*median(quiet.byKind[k]) - median(directUs[k]))
			weight += float64(kindShare[k])
		}
		r.PerLayer["serve.http_overhead_us"] = overhead / weight
		r.PerLayer["serve.quiet_p99_ms"] = tail(quiet.ms)
		r.PerLayer["serve.live_p99_ms"] = tail(live.ms)
		r.PerLayer["serve.live_p50_ms"] = median(live.ms)
		r.PerLayer["serve.freshness_p50_ms"] = median(ws.freshMs)
		r.PerLayer["serve.swaps"] = float64(s.srv.Swaps() - swaps0)
		r.PerLayer["serve.stale_id_404"] = float64(stale)
		r.PerLayer["source.generator_late_ms"] = median(ws.lateMs)
		r.PerLayer["source.records"] = float64(s.stream.Ingested())
		r.PerLayer["linkage.incr_apply_s"] = total(spans, "linkage.incr_apply")
		r.PerLayer["linkage.incr_comparisons"] = float64(s.stream.Comparisons())
		r.PerLayer["core.publish_s"] = total(spans, "core.publish")
		r.PerLayer["core.publishes"] = float64(len(ws.publishMs))
		r.PerLayer["core.snapshot_entities"] = float64(s.srv.Snapshot().Len())
	}
	return nil
}
