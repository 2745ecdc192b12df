package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strings"
	"testing"
)

// goldenReads is the recorded wire form of the four read endpoints on the
// deterministic test snapshot: status, content type and body bytes of
// every request goldenRequests lists.
const goldenReads = "testdata/read_endpoints.golden"

// goldenRequests lists the read requests the golden file pins: hits and
// misses of /entities, /search, /similar and /resolve, with the queries
// taken from fixed entities of the snapshot so they stay meaningful.
func goldenRequests(srv *Server) []*http.Request {
	ents := srv.Snapshot().Entities()
	e0, e5 := ents[0], ents[5]
	get := func(path string) *http.Request { return httptest.NewRequest(http.MethodGet, path, nil) }
	resolve := func(body string) *http.Request {
		return httptest.NewRequest(http.MethodPost, "/resolve", strings.NewReader(body))
	}
	return []*http.Request{
		get("/entities/" + e0.ID),
		get("/entities/" + e5.ID),
		get("/entities/e01"),
		get("/search?q=" + url.QueryEscape(e0.Title)),
		get("/search?q=" + url.QueryEscape(e5.Title) + "&limit=3"),
		get("/search?q=camera+pro&limit=1000"),
		get("/search?q=zzz+nothing"),
		get("/search?q=" + url.QueryEscape(e0.Title) + "&limit=-1"),
		get("/similar/" + e0.ID),
		get("/similar/" + e5.ID + "?k=2"),
		get("/similar/nope"),
		resolve(fmt.Sprintf(`{"values":{"title":%q},"k":3}`, e0.Title)),
		resolve(fmt.Sprintf(`{"values":{"title":%q}}`, e5.Title)),
		resolve(`{"values":{"title":"zzz nothing"}}`),
		resolve(`{"values":{}}`),
	}
}

// renderReads runs every golden request through the handler and renders
// the responses in the golden file's layout.
func renderReads(t *testing.T, srv *Server) string {
	t.Helper()
	h := srv.Handler()
	var b strings.Builder
	for _, req := range goldenRequests(srv) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		fmt.Fprintf(&b, "%s %s\n%d %s\n%s\n", req.Method, req.URL.RequestURI(),
			rec.Code, rec.Header().Get("Content-Type"), rec.Body.Bytes())
	}
	return b.String()
}

// TestReadEndpointsGolden pins the exact response bytes of /entities,
// /search, /similar and /resolve: the typed response structs and the
// query kernel must reproduce what the map-encoded responses over the
// map-and-sort probe sent, byte for byte.
func TestReadEndpointsGolden(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	want, err := os.ReadFile(goldenReads)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderReads(t, srv); got != string(want) {
		t.Errorf("read endpoint bytes differ from %s:\n%s", goldenReads, firstDiff(got, string(want)))
	}
}

// firstDiff reports the first line where got and want part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got  %q\n want %q", i+1, gl, wl)
		}
	}
	return "no line differs"
}
