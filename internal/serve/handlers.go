package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/data"
)

// Handler returns the server's HTTP API:
//
//	GET  /healthz            liveness + snapshot stats
//	GET  /entities/{id}      one integrated entity with fused values
//	GET  /search?q=&limit=   keyword search over titles + fused values
//	POST /resolve            score a new record against the entities
//	GET  /similar/{id}?k=    top-k similar entities
//	POST /reindex            admin: queue a background rebuild (429 when full)
//	GET  /metrics            obs snapshot as text
//
// Every handler reads one atomic snapshot load and runs lock-free on
// its immutable indexes, so the handler set is safe for unbounded
// concurrent use while reindexes swap snapshots underneath it.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealth))
	mux.HandleFunc("GET /entities/{id}", s.instrument("entity", s.handleEntity))
	mux.HandleFunc("GET /search", s.instrument("search", s.handleSearch))
	mux.HandleFunc("POST /resolve", s.instrument("resolve", s.handleResolve))
	mux.HandleFunc("GET /similar/{id}", s.instrument("similar", s.handleSimilar))
	mux.HandleFunc("POST /reindex", s.instrument("reindex", s.handleReindex))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// statusWriter records the response code for the instrumentation
// wrapper.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with request/error counters and latency
// timers, per endpoint and in aggregate. The metric names are built
// here, once per endpoint, not per request.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	requests, errs, latency := "serve."+name+".requests", "serve."+name+".errors", "serve."+name+".latency"
	return func(w http.ResponseWriter, r *http.Request) {
		reg := s.reg()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		t0 := time.Now()
		h(sw, r)
		d := time.Since(t0)
		reg.Counter("serve.requests").Inc()
		reg.Counter(requests).Inc()
		if sw.code >= 400 {
			reg.Counter(errs).Inc()
		}
		reg.Timer("serve.latency").Observe(d)
		reg.Timer(latency).Observe(d)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// EntityJSON is the wire form of one integrated entity. Values are
// rendered through data.Value.String so the payload is stable and
// client-friendly regardless of the fused value kinds.
type EntityJSON struct {
	ID         string             `json:"id"`
	Title      string             `json:"title"`
	Records    []string           `json:"records"`
	Sources    []string           `json:"sources"`
	Values     map[string]string  `json:"values,omitempty"`
	Confidence map[string]float64 `json:"confidence,omitempty"`
}

func entityJSON(e *core.Entity) EntityJSON {
	out := EntityJSON{
		ID:      e.ID,
		Title:   e.Title,
		Records: e.Records,
		Sources: e.Sources,
	}
	if len(e.Values) > 0 {
		out.Values = make(map[string]string, len(e.Values))
		for attr, v := range e.Values {
			out.Values[attr] = v.String()
		}
		out.Confidence = e.Confidence
	}
	return out
}

// HitJSON is the wire form of one scored hit.
type HitJSON struct {
	ID      string  `json:"id"`
	Title   string  `json:"title"`
	Score   float64 `json:"score"`
	Records int     `json:"records"`
	Sources int     `json:"sources"`
}

func hitsJSON(hits []core.Hit) []HitJSON {
	out := make([]HitJSON, len(hits))
	for i, h := range hits {
		out[i] = HitJSON{
			ID:      h.Entity.ID,
			Title:   h.Entity.Title,
			Score:   h.Score,
			Records: len(h.Entity.Records),
			Sources: len(h.Entity.Sources),
		}
	}
	return out
}

// The read responses are typed structs whose fields are declared in
// sorted key order, so they encode to the same bytes the equivalent
// map[string]any would.
type (
	searchResponse struct {
		Hits  []HitJSON `json:"hits"`
		Query string    `json:"query"`
	}
	similarResponse struct {
		Hits []HitJSON `json:"hits"`
		ID   string    `json:"id"`
	}
	// resolveResponse carries best and score only when there is a
	// candidate; candidate scores are always positive.
	resolveResponse struct {
		Best       *EntityJSON `json:"best,omitempty"`
		Candidates []HitJSON   `json:"candidates"`
		Match      bool        `json:"match"`
		Score      float64     `json:"score,omitempty"`
	}
)

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	snap := s.Snapshot()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      "ok",
		"entities":    snap.Len(),
		"swaps":       s.Swaps(),
		"queue_depth": len(s.jobs),
		"uptime_s":    int64(time.Since(s.started).Seconds()),
	})
}

func (s *Server) handleEntity(w http.ResponseWriter, r *http.Request) {
	e, ok := s.Snapshot().Entity(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such entity %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, entityJSON(e))
}

// limitParam parses an integer query parameter with the shared limit
// contract: absent means 0 (the core default applies), junk is a 400,
// and values above MaxLimit clamp rather than error.
func (s *Server) limitParam(r *http.Request, name string) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q: want an integer", name, raw)
	}
	if n > s.cfg.MaxLimit {
		n = s.cfg.MaxLimit
	}
	return n, nil
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if q == "" {
		writeErr(w, http.StatusBadRequest, "missing query parameter q")
		return
	}
	limit, err := s.limitParam(r, "limit")
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	hits, err := s.Snapshot().Search(q, limit)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, searchResponse{Hits: hitsJSON(hits), Query: q})
}

// resolveRequest is the /resolve body: raw attribute values (parsed
// with data.Parse, so "42" resolves as a number) plus an optional
// candidate count.
type resolveRequest struct {
	Values map[string]string `json:"values"`
	K      int               `json:"k,omitempty"`
}

// maxResolveBody bounds the /resolve request body: a record to resolve
// is a handful of attribute values, never megabytes.
const maxResolveBody = 1 << 20

func (s *Server) handleResolve(w http.ResponseWriter, r *http.Request) {
	var req resolveRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxResolveBody)).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, http.StatusRequestEntityTooLarge, "request body over %d bytes", tooBig.Limit)
			return
		}
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(req.Values) == 0 {
		writeErr(w, http.StatusBadRequest, "empty record: provide values")
		return
	}
	if req.K > s.cfg.MaxLimit {
		req.K = s.cfg.MaxLimit
	}
	rec := data.NewRecord("__query__", "__client__")
	for attr, raw := range req.Values {
		rec.Set(attr, data.Parse(raw))
	}
	hits, err := s.Snapshot().Resolve(rec, req.K)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp := resolveResponse{Candidates: hitsJSON(hits)}
	if len(hits) > 0 {
		best := entityJSON(hits[0].Entity)
		resp.Best, resp.Score = &best, hits[0].Score
		resp.Match = hits[0].Score >= s.cfg.MatchThreshold
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSimilar(w http.ResponseWriter, r *http.Request) {
	k, err := s.limitParam(r, "k")
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	id := r.PathValue("id")
	hits, err := s.Snapshot().Similar(id, k)
	switch {
	case errors.Is(err, core.ErrNoSuchEntity):
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	case err != nil:
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, similarResponse{Hits: hitsJSON(hits), ID: id})
}

func (s *Server) handleReindex(w http.ResponseWriter, r *http.Request) {
	if s.rebuild == nil {
		writeErr(w, http.StatusServiceUnavailable, "reindex is not configured")
		return
	}
	queued, depth := s.TryReindex()
	if !queued {
		writeErr(w, http.StatusTooManyRequests, "reindex queue full (depth %d)", depth)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{"queued": true, "queue_depth": depth})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, s.reg().Snapshot().Text())
}
