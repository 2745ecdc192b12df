package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

var (
	fuzzMethods = []string{http.MethodGet, http.MethodPost, http.MethodPut, http.MethodDelete, http.MethodHead}
	// fuzzRoutes are the seven routes of Handler; a trailing slash takes
	// the fuzzed {id}.
	fuzzRoutes = []string{"/healthz", "/entities/", "/search", "/resolve", "/similar/", "/reindex", "/metrics"}
)

// fuzzRequest decodes fuzz bytes into a request: byte 0 picks the
// method, byte 1 the route, bit 0 of byte 2 swaps the body for a
// well-formed one just over the /resolve limit (oversize), and the rest
// splits on newlines into {id}, raw query string and body.
func fuzzRequest(in []byte) (req *http.Request, id string, oversize bool) {
	for len(in) < 3 {
		in = append(in, 0)
	}
	parts := bytes.SplitN(in[3:], []byte("\n"), 3)
	for len(parts) < 3 {
		parts = append(parts, nil)
	}
	id, oversize = string(parts[0]), in[2]&1 == 1
	body := parts[2]
	if oversize {
		body = []byte(`{"values":{"title":"` + strings.Repeat("a", maxResolveBody) + `"}}`)
	}
	req = httptest.NewRequest(fuzzMethods[int(in[0])%len(fuzzMethods)], "/", bytes.NewReader(body))
	req.URL.Path = fuzzRoutes[int(in[1])%len(fuzzRoutes)]
	if route := req.URL.Path; strings.HasSuffix(route, "/") {
		req.URL.Path, req.URL.RawPath = route+id, route+url.PathEscape(id)
	}
	req.URL.RawQuery = string(parts[1])
	return req, id, oversize
}

// FuzzHandlers throws arbitrary methods, IDs, query strings and bodies
// at every route of a server with a live reindex worker. The edge must
// hold: no panic, every answer 2xx or a 4xx (validation, the mux's
// 404/405, the 429 of a full reindex queue) — never a 5xx — JSON answers
// parse, and a /resolve body over the limit is 413. The mux's own 301
// for a "." or ".." path segment is the one redirect it may give.
func FuzzHandlers(f *testing.F) {
	rep := testReport(f)
	snap, err := rep.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	srv, err := New(snap, func(context.Context) (*core.Snapshot, error) { return core.BuildSnapshot(rep) }, Config{QueueDepth: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)
	h := srv.Handler()

	// testdata/fuzz/FuzzHandlers holds the seed corpus; these two add a
	// search and a resolve that hit real entities of this snapshot.
	f.Add([]byte("\x00\x02\x00\nq=" + url.QueryEscape(snap.Entities()[0].Title) + "&limit=3\n"))
	f.Add([]byte("\x01\x03\x00\n\n" + `{"values":{"title":"` + snap.Entities()[0].Title + `"},"k":2}`))

	f.Fuzz(func(t *testing.T, in []byte) {
		req, id, oversize := fuzzRequest(in)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)

		code, path := rec.Code, req.URL.Path
		switch {
		case code/100 == 2, code/100 == 4 && code != http.StatusTooManyRequests:
		case code == http.StatusTooManyRequests && path == "/reindex":
		case code == http.StatusMovedPermanently && (id == "." || id == ".."):
		default:
			t.Fatalf("%s %s -> %d %s", req.Method, req.URL, code, rec.Body)
		}
		if oversize && req.Method == http.MethodPost && path == "/resolve" && code != http.StatusRequestEntityTooLarge {
			t.Fatalf("POST /resolve with a body over %d bytes -> %d, want 413", maxResolveBody, code)
		}
		if strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json") && !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("%s %s -> %d with a JSON content type and body %q", req.Method, req.URL, code, rec.Body)
		}
	})
}

// TestShutdownDuringPublish races Server.Publish against Close with
// reads in flight and a rebuild parked in the worker: Close returns,
// and every read — before, during and after it — answers from one
// complete snapshot, never a mix of two. Run with -race.
func TestShutdownDuringPublish(t *testing.T) {
	rep := testReport(t)
	full, err := core.BuildSnapshot(rep)
	if err != nil {
		t.Fatal(err)
	}
	half, err := core.BuildSnapshot(&core.Report{
		Normalized: rep.Normalized, Clusters: rep.Clusters[:len(rep.Clusters)/2], Fusion: rep.Fusion,
	})
	if err != nil {
		t.Fatal(err)
	}
	snaps := []*core.Snapshot{full, half}

	reads := []struct{ method, target, body string }{
		{http.MethodGet, "/entities/e0", ""},
		{http.MethodGet, "/search?q=" + url.QueryEscape(full.Entities()[0].Title) + "&limit=5", ""},
		{http.MethodGet, "/similar/e0?k=3", ""},
		{http.MethodPost, "/resolve", `{"values":{"title":"` + full.Entities()[1].Title + `"}}`},
	}
	read := func(h http.Handler, i int) string {
		r := reads[i%len(reads)]
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(r.method, r.target, strings.NewReader(r.body)))
		return rec.Body.String()
	}
	// What each read answers from either snapshot alone.
	want := make([][2]string, len(reads))
	for s, snap := range snaps {
		alone, err := New(snap, nil, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range reads {
			want[i][s] = read(alone.Handler(), i)
		}
	}
	if !slices.ContainsFunc(want, func(w [2]string) bool { return w[0] != w[1] }) {
		t.Fatal("both snapshots answer every read alike: a torn read would go unseen")
	}
	complete := func(i int, got string) bool { return got == want[i%len(reads)][0] || got == want[i%len(reads)][1] }

	entered := make(chan struct{})
	srv, err := New(full, func(ctx context.Context) (*core.Snapshot, error) {
		close(entered)
		<-ctx.Done() // parked until Close cancels it
		return nil, ctx.Err()
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	if queued, _ := srv.TryReindex(); !queued {
		t.Fatal("reindex not queued")
	}
	<-entered

	const readers = 4
	stop := make(chan struct{})
	warm := make(chan struct{}, readers+1) // one token per goroutine once it is racing
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				got := read(h, i)
				if i == g {
					warm <- struct{}{}
				}
				if !complete(i, got) {
					t.Errorf("read %d answered from no complete snapshot: %s", i, got)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			srv.Publish(snaps[i%2])
			if i == 0 {
				warm <- struct{}{}
			}
		}
	}()
	for i := 0; i < readers+1; i++ {
		<-warm
	}

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return with publishes and reads in flight")
	}
	// Close only shuts the rebuild path: reads and publishes go on.
	for i := range reads {
		if got := read(h, i); !complete(i, got) {
			t.Errorf("read %d after Close answered from no complete snapshot: %s", i, got)
		}
	}
	close(stop)
	wg.Wait()
	if cur := srv.Snapshot(); cur != full && cur != half {
		t.Error("served snapshot is neither published one")
	}
}
