// Command bdiserve turns one integration run into a long-lived
// service: it ingests a dataset (from a file or generated in-process),
// runs the full pipeline once, builds an immutable serving snapshot
// and answers concurrent HTTP/JSON queries over it:
//
//	GET  /entities/{id}      one integrated entity
//	GET  /search?q=&limit=   keyword search over titles + fused values
//	POST /resolve            score a new record against the entities
//	GET  /similar/{id}?k=    top-k similar entities
//	POST /reindex            admin: rebuild in the background (429 when full)
//	GET  /healthz            liveness, entity count, swap count
//	GET  /metrics            obs snapshot
//
// Reads are lock-free: handlers load the current snapshot through an
// atomic pointer; POST /reindex re-runs the pipeline over the held
// dataset on a single background worker and swaps the new snapshot in
// atomically. The reindex queue is bounded — extra requests get 429.
//
// Usage:
//
//	bdigen -out web.json && bdiserve -in web.json -addr :8080
//	bdiserve -gen -gen-entities 200 -addr :8080          # self-generated data
//	bdiserve -gen -loadtest 1x50,8x50,64x50              # latency benchmark
//	bdiserve -gen -stream -stream-state bdi.state        # streaming ingestion
//
// With -stream the batch pipeline is bypassed: sources are replayed as
// an epoch stream through incremental linkage and online fusion, and
// each published view is swapped into the serving snapshot within the
// -stream-staleness window. -stream-state makes the stream durable —
// the state file is restored on start and saved at each epoch.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/source"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bdiserve:", err)
		os.Exit(1)
	}
}

// run owns the whole lifecycle, so deferred cleanup (the server, the
// background worker) executes on error paths too.
func run() error {
	var (
		in          = flag.String("in", "", "input dataset (JSON; - for stdin)")
		csvIn       = flag.Bool("csv", false, "input is CSV instead of JSON")
		gen         = flag.Bool("gen", false, "generate a synthetic dataset instead of reading one")
		genEntities = flag.Int("gen-entities", 100, "entities in the generated dataset")
		genSources  = flag.Int("gen-sources", 20, "sources in the generated dataset")
		seed        = flag.Int64("seed", 42, "generator seed")
		addr        = flag.String("addr", ":8080", "listen address")
		queue       = flag.Int("queue", 2, "reindex queue depth (extra requests get 429)")
		threshold   = flag.Float64("threshold", 0.6, "resolve match threshold")
		maxLimit    = flag.Int("max-limit", 100, "cap on limit/k query parameters")
		fuser       = flag.String("fuser", "vote", "fusion method: "+strings.Join(core.FuserNames(), ", "))
		order       = flag.String("order", "linkage-first", "stage order: linkage-first or schema-first")
		workers     = flag.Int("workers", 0, "pipeline worker goroutines (0 = NumCPU)")
		loadtest    = flag.String("loadtest", "", "run a load test instead of serving: comma-separated NxM levels, e.g. 1x50,8x50,64x50")

		stream          = flag.Bool("stream", false, "stream the dataset through incremental linkage + online fusion, republishing the snapshot as epochs land")
		streamEpoch     = flag.Int("stream-epoch", 100, "records per stream epoch")
		streamStaleness = flag.Duration("stream-staleness", 2*time.Second, "maximum staleness window before a dirty view is republished")
		streamState     = flag.String("stream-state", "", "stream state file: restored on start, saved at each epoch (empty = no persistence)")
		streamCompact   = flag.Float64("stream-compact-ratio", 0, "compact stream state when tombstone garbage reaches this posting-slot ratio (0 = never)")
	)
	flag.Parse()

	if *gen == (*in != "") {
		return fmt.Errorf("exactly one of -in or -gen is required")
	}

	reg := obs.NewRegistry()
	obs.SetDefault(reg)

	dataset, err := loadDataset(*in, *csvIn, *gen, *genEntities, *genSources, *seed)
	if err != nil {
		return err
	}

	cfg := core.Config{Fuser: *fuser, Workers: *workers, Obs: reg}
	if cfg.Order, err = core.ParseOrder(*order); err != nil {
		return fmt.Errorf("-order: %w", err)
	}

	srvCfg := serve.Config{
		QueueDepth:     *queue,
		MatchThreshold: *threshold,
		MaxLimit:       *maxLimit,
		Obs:            reg,
	}

	var srv *serve.Server
	if *stream {
		// Streaming mode: the dataset's sources are replayed as a
		// stream; each published view is pushed into the server's swap
		// path, so readers always see a snapshot at most one staleness
		// window behind ingestion. POST /reindex is disabled — the
		// stream owns the write path.
		st, err := core.ResumeStream(core.StreamConfig{
			EpochSize:    *streamEpoch,
			Staleness:    *streamStaleness,
			StatePath:    *streamState,
			CompactRatio: *streamCompact,
			Workers:      *workers,
			Obs:          reg,
		}, func(snap *core.Snapshot) {
			if srv != nil {
				srv.Publish(snap)
			}
		})
		if err != nil {
			return err
		}
		snap, err := st.Rebuild(context.Background())
		if err != nil {
			return err
		}
		srv, err = serve.New(snap, nil, srvCfg)
		if err != nil {
			return err
		}
		defer srv.Close()
		// Stopped before the server closes: a shutdown waits out any
		// in-flight state save instead of abandoning its temp file.
		streaming := startStream(st, dataset)
		defer streaming.stop()
		fmt.Fprintf(os.Stderr, "bdiserve: streaming %d records (epoch %d, staleness %v)\n",
			dataset.NumRecords(), *streamEpoch, *streamStaleness)
	} else {
		// The rebuild path is the same pipeline over the held dataset, so
		// POST /reindex on unchanged data swaps in a byte-identical view.
		rebuild := func(ctx context.Context) (*core.Snapshot, error) {
			rep, err := core.New(cfg).RunCtx(ctx, dataset)
			if err != nil {
				return nil, err
			}
			return rep.Snapshot()
		}

		t0 := time.Now()
		snap, err := rebuild(context.Background())
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "bdiserve: pipeline done in %v — %d entities from %d records\n",
			time.Since(t0).Round(time.Millisecond), snap.Len(), dataset.NumRecords())

		srv, err = serve.New(snap, rebuild, srvCfg)
		if err != nil {
			return err
		}
		defer srv.Close()
	}

	if *loadtest != "" {
		return runLoadTest(srv, *loadtest)
	}

	httpSrv := newHTTPServer(*addr, srv.Handler())
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "bdiserve: listening on %s\n", *addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "bdiserve: %v — shutting down\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			return err
		}
		return nil
	}
}

// streamRunner owns the -stream goroutine: stop cancels the stream and
// returns once the goroutine has exited.
type streamRunner struct {
	ctx    context.Context // the stream's; stop cancels it
	cancel context.CancelFunc
	done   chan struct{}
	err    error // valid once done is closed
}

// startStream drains the dataset's sources through st as upsert-only
// change logs on a new goroutine, reporting the outcome on stderr.
func startStream(st *core.Stream, d *data.Dataset) *streamRunner {
	ctx, cancel := context.WithCancel(context.Background())
	r := &streamRunner{ctx: ctx, cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(r.done)
		err := st.RunDeltas(r.ctx, source.FromDataset(d), source.Totals(d))
		switch {
		case err == nil:
			fmt.Fprintf(os.Stderr, "bdiserve: stream drained — %d records in %d epochs, %d publishes\n",
				st.Ingested(), st.Epoch(), st.Publishes())
		case r.ctx.Err() != nil && errors.Is(err, context.Canceled):
			// A requested stop, not a failure.
			fmt.Fprintf(os.Stderr, "bdiserve: stream stopped at epoch %d\n", st.Epoch())
		default:
			r.err = err
			fmt.Fprintln(os.Stderr, "bdiserve: stream:", err)
		}
	}()
	return r
}

// stop cancels the stream and waits for its goroutine to exit. It
// returns the stream's failure: nil after a drain or a requested stop.
func (r *streamRunner) stop() error {
	r.cancel()
	<-r.done
	return r.err
}

// newHTTPServer bounds every phase of a connection, so a slow or stalled
// client cannot hold one open indefinitely. Every response is a small
// JSON document computed from an in-memory snapshot, so the limits are
// generous rather than tuned.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

func loadDataset(in string, csvIn, gen bool, entities, sources int, seed int64) (*data.Dataset, error) {
	if gen {
		world := datagen.NewWorld(datagen.WorldConfig{Seed: seed, NumEntities: entities})
		web := datagen.BuildWeb(world, datagen.SourceConfig{
			Seed: seed + 1, NumSources: sources, DirtLevel: 1,
			IdentifierRate: 0.8, Heterogeneity: 0.5,
		})
		return web.Dataset, nil
	}
	r := os.Stdin
	if in != "-" {
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	if csvIn {
		return data.ReadCSV(r)
	}
	return data.ReadJSON(r)
}

// runLoadTest serves on an ephemeral loopback port, drives each NxM
// load level against /search and prints a latency table.
func runLoadTest(srv *serve.Server, spec string) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := newHTTPServer("", srv.Handler())
	go func() { _ = httpSrv.Serve(ln) }()
	defer httpSrv.Close()
	baseURL := "http://" + ln.Addr().String()

	var queries []string
	for i, e := range srv.Snapshot().Entities() {
		if i%5 == 0 && e.Title != "" {
			queries = append(queries, e.Title)
		}
	}
	if len(queries) == 0 {
		return errors.New("no entity titles to query")
	}

	fmt.Printf("%-8s  %-9s  %-7s  %-10s  %-10s  %-10s  %s\n",
		"clients", "requests", "errors", "p50", "p99", "max", "qps")
	for _, level := range strings.Split(spec, ",") {
		var clients, requests int
		if _, err := fmt.Sscanf(level, "%dx%d", &clients, &requests); err != nil {
			return fmt.Errorf("bad -loadtest level %q (want NxM): %w", level, err)
		}
		res, err := serve.LoadTest(baseURL, serve.LoadConfig{
			Clients: clients, Requests: requests, Queries: queries,
		})
		if err != nil {
			return err
		}
		fmt.Printf("%-8d  %-9d  %-7d  %-10v  %-10v  %-10v  %.0f\n",
			res.Clients, res.Requests, res.Errors, res.P50, res.P99, res.Max, res.QPS)
	}
	return nil
}
