package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/obs"
)

func testReport(t testing.TB) *core.Report {
	t.Helper()
	w := datagen.NewWorld(datagen.WorldConfig{Seed: 71, NumEntities: 40})
	web := datagen.BuildWeb(w, datagen.SourceConfig{
		Seed: 72, NumSources: 10, DirtLevel: 1,
		IdentifierRate: 0.9, Heterogeneity: 0.6,
		HeadFraction: 0.4, TailCoverage: 0.3,
	})
	rep, err := core.New(core.Config{}).Run(web.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// newTestServer builds a server over the deterministic test dataset
// whose rebuild re-snapshots the same report — so every swap serves
// identical data, which the byte-identity test relies on.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	rep := testReport(t)
	snap, err := rep.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	rebuild := func(ctx context.Context) (*core.Snapshot, error) {
		return core.BuildSnapshot(rep)
	}
	srv, err := New(snap, rebuild, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func post(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func TestHealthz(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	code, body := get(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d %s", code, body)
	}
	var h struct {
		Status   string `json:"status"`
		Entities int    `json:"entities"`
		Swaps    int64  `json:"swaps"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Entities != srv.Snapshot().Len() || h.Swaps != 0 {
		t.Errorf("healthz = %+v", h)
	}
}

func TestEntityEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	want := srv.Snapshot().Entities()[0]
	code, body := get(t, ts.URL+"/entities/"+want.ID)
	if code != http.StatusOK {
		t.Fatalf("entity: %d %s", code, body)
	}
	var e EntityJSON
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.ID != want.ID || e.Title != want.Title || len(e.Records) != len(want.Records) {
		t.Errorf("entity = %+v, want %s %q", e, want.ID, want.Title)
	}
	for attr, v := range want.Values {
		if e.Values[attr] != v.String() {
			t.Errorf("value %s = %q, want %q", attr, e.Values[attr], v.String())
		}
	}
	for _, id := range []string{"nope", "e01", "e999999"} {
		if code, _ := get(t, ts.URL+"/entities/"+id); code != http.StatusNotFound {
			t.Errorf("entities/%s: %d, want 404", id, code)
		}
	}
}

func TestSearchEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxLimit: 5})
	q := srv.Snapshot().Entities()[0].Title
	code, body := get(t, ts.URL+"/search?q="+strings.ReplaceAll(q, " ", "+"))
	if code != http.StatusOK {
		t.Fatalf("search: %d %s", code, body)
	}
	var r struct {
		Query string    `json:"query"`
		Hits  []HitJSON `json:"hits"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if r.Query != q || len(r.Hits) == 0 {
		t.Fatalf("search %q: %d hits", q, len(r.Hits))
	}
	if r.Hits[0].Score <= 0 || r.Hits[0].Title == "" {
		t.Errorf("degenerate top hit %+v", r.Hits[0])
	}
	// Validation and clamping.
	for _, bad := range []string{"/search", "/search?q=" + q + "&limit=-3", "/search?q=x&limit=zzz"} {
		if code, _ := get(t, ts.URL+bad); code != http.StatusBadRequest {
			t.Errorf("GET %s: %d, want 400", bad, code)
		}
	}
	code, body = get(t, ts.URL+"/search?q="+strings.ReplaceAll(q, " ", "+")+"&limit=1000")
	if code != http.StatusOK {
		t.Fatalf("clamped search: %d", code)
	}
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if len(r.Hits) > 5 {
		t.Errorf("limit=1000 returned %d hits, want clamp to MaxLimit 5", len(r.Hits))
	}
}

func TestResolveEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	target := srv.Snapshot().Entities()[0]
	req := fmt.Sprintf(`{"values":{"title":%q},"k":3}`, target.Title)
	code, body := post(t, ts.URL+"/resolve", req)
	if code != http.StatusOK {
		t.Fatalf("resolve: %d %s", code, body)
	}
	var r struct {
		Match      bool       `json:"match"`
		Score      float64    `json:"score"`
		Best       EntityJSON `json:"best"`
		Candidates []HitJSON  `json:"candidates"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if len(r.Candidates) == 0 {
		t.Fatal("no resolve candidates for an exact title copy")
	}
	found := false
	for _, c := range r.Candidates {
		if c.ID == target.ID {
			found = true
		}
	}
	if !found {
		t.Errorf("target %s missing from candidates for its own title", target.ID)
	}
	// Validation.
	for _, bad := range []string{`{"values":{}}`, `{`, `{"k":3}`} {
		if code, _ := post(t, ts.URL+"/resolve", bad); code != http.StatusBadRequest {
			t.Errorf("resolve %s: %d, want 400", bad, code)
		}
	}
}

// TestResolveHostileBodies: an oversized body is refused with 413 before
// it is buffered, a truncated one with 400, and the server keeps serving.
func TestResolveHostileBodies(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	huge := `{"values":{"title":"` + strings.Repeat("a", maxResolveBody) + `"}}`
	for _, c := range []struct {
		name, body string
		want       int
	}{
		{"oversized", huge, http.StatusRequestEntityTooLarge},
		{"oversized unterminated", `"` + strings.Repeat("a", 2*maxResolveBody), http.StatusRequestEntityTooLarge},
		{"truncated", `{"values":{"title":"acme rock`, http.StatusBadRequest},
		{"empty", ``, http.StatusBadRequest},
	} {
		if code, body := post(t, ts.URL+"/resolve", c.body); code != c.want {
			t.Errorf("%s body: %d %s, want %d", c.name, code, body, c.want)
		}
	}
	if code, _ := post(t, ts.URL+"/resolve", `{"values":{"title":"acme"}}`); code != http.StatusOK {
		t.Errorf("resolve after hostile bodies: %d, want 200", code)
	}
}

func TestSimilarEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	id := srv.Snapshot().Entities()[0].ID
	code, body := get(t, ts.URL+"/similar/"+id+"?k=3")
	if code != http.StatusOK {
		t.Fatalf("similar: %d %s", code, body)
	}
	var r struct {
		ID   string    `json:"id"`
		Hits []HitJSON `json:"hits"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if r.ID != id || len(r.Hits) > 3 {
		t.Errorf("similar = id %s, %d hits", r.ID, len(r.Hits))
	}
	for _, h := range r.Hits {
		if h.ID == id {
			t.Error("similar returned the entity itself")
		}
	}
	if code, _ := get(t, ts.URL+"/similar/nope"); code != http.StatusNotFound {
		t.Errorf("similar/nope: %d, want 404", code)
	}
	if code, _ := get(t, ts.URL+"/similar/"+id+"?k=-1"); code != http.StatusBadRequest {
		t.Errorf("similar k=-1: %d, want 400", code)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Config{Obs: reg})
	get(t, ts.URL+"/healthz")
	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	if !bytes.Contains(body, []byte("serve.requests")) {
		t.Errorf("metrics missing serve.requests:\n%s", body)
	}
}

func TestReindexNotConfigured(t *testing.T) {
	rep := testReport(t)
	snap, err := rep.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(snap, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if code, _ := post(t, ts.URL+"/reindex", ""); code != http.StatusServiceUnavailable {
		t.Errorf("reindex without rebuild: %d, want 503", code)
	}
}

// TestReindexQueueFull429 pins the backpressure contract: with the
// worker parked inside a rebuild and the depth-1 queue already holding
// one pending job, a third reindex must be rejected with 429.
func TestReindexQueueFull429(t *testing.T) {
	rep := testReport(t)
	snap, err := rep.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	rebuild := func(ctx context.Context) (*core.Snapshot, error) {
		entered <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return core.BuildSnapshot(rep)
	}
	srv, err := New(snap, rebuild, Config{QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// #1: accepted; wait until the worker has dequeued it and is
	// parked inside the rebuild, so the queue is empty again.
	if code, body := post(t, ts.URL+"/reindex", ""); code != http.StatusAccepted {
		t.Fatalf("reindex #1: %d %s", code, body)
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never started the rebuild")
	}
	// #2: fills the depth-1 queue.
	if code, body := post(t, ts.URL+"/reindex", ""); code != http.StatusAccepted {
		t.Fatalf("reindex #2: %d %s", code, body)
	}
	// #3: queue full — the backpressure path.
	code, body := post(t, ts.URL+"/reindex", "")
	if code != http.StatusTooManyRequests {
		t.Fatalf("reindex #3: %d %s, want 429", code, body)
	}
	if !bytes.Contains(body, []byte("queue full")) {
		t.Errorf("429 body %s lacks explanation", body)
	}

	close(release)
	waitSwaps(t, srv, 2)
}

func waitSwaps(t *testing.T, srv *Server, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for srv.Swaps() < want {
		if time.Now().After(deadline) {
			t.Fatalf("swaps stuck at %d, want %d", srv.Swaps(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSearchIdenticalAfterReindex pins the determinism contract:
// reindexing over identical data must produce byte-identical search
// responses.
func TestSearchIdenticalAfterReindex(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	q := srv.Snapshot().Entities()[0].Title
	url := ts.URL + "/search?q=" + strings.ReplaceAll(q, " ", "+") + "&limit=20"
	code, before := get(t, url)
	if code != http.StatusOK {
		t.Fatalf("search before: %d", code)
	}
	if code, _ := post(t, ts.URL+"/reindex", ""); code != http.StatusAccepted {
		t.Fatal("reindex not accepted")
	}
	waitSwaps(t, srv, 1)
	code, after := get(t, url)
	if code != http.StatusOK {
		t.Fatalf("search after: %d", code)
	}
	if !bytes.Equal(before, after) {
		t.Errorf("search response changed across an identical-data reindex:\nbefore: %s\nafter:  %s", before, after)
	}
}

// TestConcurrentSearchDuringSwap is the race test: N goroutines read
// through the handlers while reindexes swap snapshots underneath them.
// Run with -race; any locking mistake in the snapshot swap shows up
// here.
func TestConcurrentSearchDuringSwap(t *testing.T) {
	srv, ts := newTestServer(t, Config{QueueDepth: 4})
	ents := srv.Snapshot().Entities()
	queries := []string{ents[0].Title, ents[1].Title, "camera", "pro"}

	const goroutines = 8
	const perG = 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				switch i % 3 {
				case 0:
					q := queries[(g+i)%len(queries)]
					code, body := get(t, ts.URL+"/search?q="+strings.ReplaceAll(q, " ", "+"))
					if code != http.StatusOK {
						t.Errorf("search: %d %s", code, body)
					}
				case 1:
					code, _ := get(t, ts.URL+"/entities/"+ents[(g+i)%len(ents)].ID)
					if code != http.StatusOK {
						t.Errorf("entity: %d", code)
					}
				case 2:
					code, _ := get(t, ts.URL+"/similar/"+ents[(g+i)%len(ents)].ID+"?k=3")
					if code != http.StatusOK {
						t.Errorf("similar: %d", code)
					}
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 6; i++ {
			post(t, ts.URL+"/reindex", "")
			time.Sleep(5 * time.Millisecond)
		}
	}()
	wg.Wait()
	<-done
	if srv.Swaps() == 0 {
		t.Error("no snapshot swap happened during the concurrent run")
	}
}

func TestLoadTestDriver(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	res, err := LoadTest(ts.URL, LoadConfig{
		Clients:  4,
		Requests: 10,
		Queries:  []string{srv.Snapshot().Entities()[0].Title, "camera"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 40 || res.Errors != 0 {
		t.Fatalf("load test: %+v", res)
	}
	if res.P50 <= 0 || res.P99 < res.P50 || res.Max < res.P99 {
		t.Errorf("latency quantiles out of order: %+v", res)
	}
	if res.QPS <= 0 {
		t.Errorf("qps = %v", res.QPS)
	}
	if _, err := LoadTest(ts.URL, LoadConfig{}); err == nil {
		t.Error("load test without queries must error")
	}
}

func TestPublishSwapsSnapshot(t *testing.T) {
	reg := obs.NewRegistry()
	srv, ts := newTestServer(t, Config{Obs: reg})

	rep := testReport(t)
	next, err := core.BuildSnapshot(rep)
	if err != nil {
		t.Fatal(err)
	}
	srv.Publish(next)
	if srv.Snapshot() != next {
		t.Error("Publish did not swap the served snapshot")
	}
	if srv.Swaps() != 1 {
		t.Errorf("swaps = %d, want 1", srv.Swaps())
	}
	// A nil publish is ignored: the last good snapshot keeps serving.
	srv.Publish(nil)
	if srv.Snapshot() != next || srv.Swaps() != 1 {
		t.Error("nil Publish must be a no-op")
	}
	// Readers see the published view immediately.
	code, _ := get(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Errorf("healthz after publish = %d", code)
	}
}
