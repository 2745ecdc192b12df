// Command bdibench regenerates the experiment tables indexed in
// DESIGN.md (E1–E28), in the order of the experiments registry: fusion
// under copying, EM convergence, blocking trade-offs, meta-blocking,
// matcher quality, clustering comparison, incremental linkage, schema
// alignment, scale-out, source selection, domain regimes, temporal
// linkage, the end-to-end pipeline, the stage-ordering ablation, the
// extension features, ingestion under faults, memory-budgeted pair
// generation at scale, rank-fused progressive candidate generation,
// concurrent serving latency (the bdiserve load benchmark), streaming
// versus batch relinking and update/delete churn.
//
// Usage:
//
//	bdibench            # run every experiment
//	bdibench -exp E1    # run one experiment
//	bdibench -exp E23   # the fault-injection chaos sweep
//	bdibench -seed 7    # change the workload seed
//
// E24 (the sharded-blocking scale sweep) takes extra knobs:
//
//	bdibench -exp E24 -e24-sizes 1000000,3000000,10000000 \
//	    -e24-workers 1,2,8 -shards 16
//
// E25 (rank fusion: recall vs comparison budget) takes the fusion
// constant:
//
//	bdibench -exp E25 -rrf-k 600
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bdibench:", err)
		os.Exit(1)
	}
}

// run owns the whole lifecycle, so deferred cleanup (the debug server)
// executes on error paths too.
func run() error {
	all := experiments.All()
	var (
		exp        = flag.String("exp", "all", fmt.Sprintf("experiment ID (%s..%s) or 'all'", all[0].ID, all[len(all)-1].ID))
		seed       = flag.Int64("seed", 42, "workload seed")
		metrics    = flag.Bool("metrics", false, "print a per-experiment metrics block")
		debugAddr  = flag.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address")
		shards     = flag.Int("shards", 0, "E24: blocking data shards (0 = default 8)")
		pairBudget = flag.String("pair-mem-budget", "", "E24: explicit pair-memory budget, e.g. 256mb (empty = 25% of the unsharded peak)")
		spillDir   = flag.String("spill-dir", "", "E24: directory for blocking spill runs (empty = system temp)")
		e24Sizes   = flag.String("e24-sizes", "", "E24: comma-separated record counts, e.g. 1000000,3000000,10000000")
		e24Workers = flag.String("e24-workers", "", "E24: comma-separated worker counts (default 1,2,8)")
		rrfK       = flag.Float64("rrf-k", 0, "E25: reciprocal-rank-fusion constant (0 = committed default)")
	)
	flag.Parse()

	opts := experiments.Opts{
		E24: experiments.E24Opts{Shards: *shards, SpillDir: *spillDir},
		E25: experiments.E25Opts{RRFK: *rrfK},
	}
	var err error
	if opts.E24.Sizes, err = parseInts(*e24Sizes); err != nil {
		return fmt.Errorf("-e24-sizes: %w", err)
	}
	if opts.E24.Workers, err = parseInts(*e24Workers); err != nil {
		return fmt.Errorf("-e24-workers: %w", err)
	}
	if opts.E24.PairMemBudget, err = core.ParseByteSize(*pairBudget); err != nil {
		return fmt.Errorf("-pair-mem-budget: %w", err)
	}

	if *debugAddr != "" {
		srv, addr, err := obs.ServeDebug(*debugAddr, nil)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "bdibench: debug server on http://%s\n", addr)
	}

	var ids []string
	for _, e := range all {
		ids = append(ids, e.ID)
	}
	if *exp != "all" {
		ids = strings.Split(strings.ToUpper(*exp), ",")
	}
	failed := 0
	for _, id := range ids {
		start := time.Now()
		// Fresh metrics registry per experiment: the stages pick it up through
		// obs.OrDefault, and the debug server's expvar export always
		// reflects the experiment currently running.
		var reg *obs.Registry
		if *metrics || *debugAddr != "" {
			reg = obs.NewRegistry()
			obs.SetDefault(reg)
		}
		tab, _, err := experiments.Run(id, *seed, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bdibench: %s: %v\n", id, err)
			failed++
			continue
		}
		fmt.Println(tab)
		if *metrics {
			fmt.Printf("-- %s metrics --\n%s", id, reg.Snapshot().Text())
		}
		fmt.Printf("(%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	if failed > 0 {
		return fmt.Errorf("%d experiment(s) failed", failed)
	}
	return nil
}

// parseInts parses a comma-separated list of integers; "" means unset.
func parseInts(s string) ([]int, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", p)
		}
		out = append(out, n)
	}
	return out, nil
}
