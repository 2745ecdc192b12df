// Command benchmark is the repo's benchmark: four seeded workloads over
// the integration path (batch_wide, link_scale, stream_churn,
// serve_live), end-to-end metrics from untraced runs, per-layer metrics
// from traced runs, a correctness gate and a compare mode. See README.md.
//
//	go run ./benchmark -seed 42 [-trace 1]
//	go run ./benchmark -seed 42 -runs 3 -out new.json
//	go run ./benchmark -compare old.json new.json
//	bash benchmark/run.sh --workload batch_wide --seed 42 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "run this one workload and print its result as the last line (default: all four)")
		seed    = fs.Int64("seed", 42, "seed every input is generated from")
		seconds = fs.Float64("seconds", defaultSeconds, "length of each run's measurement window")
		trace   = fs.Int("trace", 0, "1: record harness spans and report the per-layer metrics instead of the end-to-end ones")
		runs    = fs.Int("runs", 1, "repeat the untraced set this many times, alternating workload order, and report median and quartiles")
		out     = fs.String("out", "", "write every run's end-to-end values to this file, for -compare")
		compare = fs.Bool("compare", false, "compare two -out files given as arguments: old.json new.json")
		scale   = fs.Float64("scale", 1, "input sizes as a share of the committed sizes")
		tmpDir  = fs.String("tmp-dir", filepath.Join(".bench_build", "tmp"), "directory for spill runs and stream state")
		outDir  = fs.String("trace-dir", filepath.Join("benchmark", "out"), "directory for trace_<workload>.json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two files: old.json new.json")
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if *seconds <= 0 || *scale <= 0 || *runs < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need -seconds > 0, -scale > 0, -runs >= 1 and -trace 0 or 1")
	}
	h := &harness{seed: *seed, seconds: *seconds, scale: *scale, tmpDir: *tmpDir, traceDir: *outDir}

	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		r, err := h.once(w, *trace == 1)
		if err != nil {
			return err
		}
		printResult(os.Stdout, w, r)
		line, err := json.Marshal(r.driverLine(w))
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		return nil
	}

	// Every workload: K untraced sets, then one traced set if asked for.
	rec := newRecord(*seed, *seconds, *scale)
	incorrect := 0
	untraced := map[string]*result{}
	for k := 0; k < *runs; k++ {
		order := append([]workload(nil), workloads...)
		if k%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			r, err := h.once(w, false)
			if err != nil {
				return err
			}
			if *runs == 1 {
				printResult(os.Stdout, w, r)
			}
			if len(r.Problems) > 0 {
				incorrect++
			}
			rec.add(r)
			untraced[w.name] = r
		}
	}
	if *runs > 1 {
		rec.print(os.Stdout)
	}
	if *trace == 1 {
		for _, w := range workloads {
			r, err := h.once(w, true)
			if err != nil {
				return err
			}
			printResult(os.Stdout, w, r)
			base, traced := untraced[w.name].Values[w.overhead], r.Values[w.overhead]
			fmt.Printf("  trace_overhead_pct  %+.1f %%  (%s traced %.4g against untraced %.4g)\n",
				100*findMetric(w.overhead).worsening(base, traced), w.overhead, traced, base)
			if len(r.Problems) > 0 {
				incorrect++
			}
		}
	}
	if *out != "" {
		if err := rec.write(*out); err != nil {
			return err
		}
	}
	if incorrect > 0 {
		return fmt.Errorf("%d run(s) failed the correctness gate", incorrect)
	}
	return nil
}

// harness holds what every run shares.
type harness struct {
	seed     int64
	seconds  float64
	scale    float64
	tmpDir   string
	traceDir string
}

// once runs one workload once, in a scratch directory of its own.
func (h *harness) once(w workload, traced bool) (*result, error) {
	if err := os.MkdirAll(h.tmpDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(h.tmpDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e := &env{seed: h.seed, seconds: h.seconds, scale: h.scale, tmpDir: dir}
	if traced {
		e.tr = newTracer()
	}
	r, err := runWorkload(w, e)
	if err != nil {
		return nil, err
	}
	if traced {
		if err := writeTrace(h.traceDir, w.name, e.tr.finish()); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// driverLine is the result in the form the driver reads: its six generic
// metrics from an untraced run, the per-layer metrics from a traced one.
func (r *result) driverLine(w workload) map[string]any {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]mv{}
	if r.PerLayer != nil {
		for _, m := range perLayer {
			ms[m.Name] = mv{r.PerLayer[m.Name], m.Unit}
		}
	} else {
		for _, m := range driverMetrics {
			ms[m.Name] = mv{r.Values[w.driver[m.Name]], m.Unit}
		}
	}
	return map[string]any{
		"correct": len(r.Problems) == 0, "attempted": r.Attempted, "failed": r.Failed, "metrics": ms,
	}
}

// printResult prints one run for a reader: every metric by name with its
// unit, sample count, direction and bound.
func printResult(f io.Writer, w workload, r *result) {
	mode := "untraced"
	if r.PerLayer != nil {
		mode = "traced"
	}
	fmt.Fprintf(f, "== %s (%s)  %s\n   %s\n   digest %016x, attempted %d, failed %d\n",
		w.name, mode, r.Sizes, w.loop, r.Digest, r.Attempted, r.Failed)
	for _, m := range endToEnd {
		if v, ok := r.Values[m.Name]; ok {
			fmt.Fprintf(f, "  %-18s %12.4f %-5s n=%-6d %s is better, bound %s\n",
				m.Name, v, m.Unit, r.Samples[m.Name], m.Better, m.amount(m.Bound))
		}
	}
	fmt.Fprintf(f, "   as the driver reads it:\n")
	for _, m := range driverMetrics {
		fmt.Fprintf(f, "  %-18s %12.4f %-5s = %s\n", m.Name, r.Values[w.driver[m.Name]], m.Unit, w.driver[m.Name])
	}
	if r.PerLayer != nil {
		for _, m := range perLayer {
			if v := r.PerLayer[m.Name]; v != 0 {
				fmt.Fprintf(f, "  %-30s %14.4f %s\n", m.Name, v, m.Unit)
			}
		}
		fmt.Fprintf(f, "  (per-layer metrics not listed are 0: the layer does no work on this workload)\n")
	}
	for _, p := range r.Warnings {
		fmt.Fprintln(f, "  WARNING:", p)
	}
	for _, p := range r.Problems {
		fmt.Fprintln(f, "  INCORRECT:", p)
	}
}
