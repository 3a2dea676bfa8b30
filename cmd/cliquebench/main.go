// Command cliquebench regenerates the experiments of EXPERIMENTS.md —
// one per figure/theorem of the paper — from the internal/exp registry.
// It is a thin driver: experiment list, flag help, and validation all
// derive from the registry, so adding an experiment there is the whole
// job.
//
// Usage:
//
//	cliquebench                               # full text report
//	cliquebench -exp fig1,thm9                # a subset
//	cliquebench -list -format=json            # registry listing, no runs
//	cliquebench -format=json -parallel=4      # machine-readable report
//	cliquebench -format=json -timing          # + measured rounds/sec
//	cliquebench -compare BENCH_baseline.json  # gate against a baseline
//	cliquebench -cpuprofile cpu.pprof         # profile the hot paths
//
// JSON output without -timing is deterministic: bit-identical across
// repeat runs and across -parallel settings. With -timing it carries a
// throughput block and a "probes" map with one measurement per row of
// the exp probe table (exp.Probes: allocs/op of the canonical exchange
// and the packed boolean MM, best-of-runs rounds/sec of the trace-off
// exchange and of a batched exchange against its serial reference),
// the figures the BENCH_*.json perf trajectory and the CI regression
// gate track. -compare warns on throughput, model-cost and probe drift
// beyond each probe's warn fraction, and FAILS (exit 1) when a probe
// drifts beyond its fail fraction (or -fail-ci-factor baseline CI
// half-widths) — the probe table holds both fractions.
//
// -trace=FILE runs every experiment with the round-level tracer
// attached, writes a Chrome trace-event file to FILE (open it in
// Perfetto: https://ui.perfetto.dev), and attaches the cliquetrace/v1
// summary block to each experiment's JSON result. Traced envelopes
// embed wall-clock data and are therefore not bit-reproducible;
// leaving -trace off leaves every output byte exactly as before.
//
// -cpuprofile and -memprofile write pprof profiles of the run (the heap
// profile is captured after a final GC), so hot-path work on the
// simulator is measurable without ad-hoc patches:
//
//	go tool pprof cliquebench cpu.pprof
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"

	"repro/internal/clique"
	"repro/internal/exp"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	expFlag := flag.String("exp", "all", exp.Help())
	backend := flag.String("backend", clique.DefaultBackend,
		"execution backend ("+strings.Join(clique.Backends(), ", ")+")")
	format := flag.String("format", "text", "output format (text, json)")
	parallel := flag.Int("parallel", 1, "worker-pool width; experiments are independent and results keep registry order")
	quick := flag.Bool("quick", false, "reduced instance sizes (CI smoke, tests)")
	timing := flag.Bool("timing", false, "attach measured simulator throughput to JSON output (text always reports it)")
	repeats := flag.Int("repeats", 1, "timed registry runs; >1 attaches a rounds/sec distribution to the throughput block (variance-aware baselines)")
	compare := flag.String("compare", "", "baseline report JSON to compare this run against")
	threshold := flag.Float64("regress-threshold", 0.25, "rounds/sec regression fraction that triggers a -compare warning when the baseline has no repeat distribution")
	ciFactor := flag.Float64("ci-factor", exp.DefaultCIFactor, "warn when a metric drifts beyond this many baseline CI half-widths (variance-aware baselines)")
	failCIFactor := flag.Float64("fail-ci-factor", exp.FailCIFactor, "fail (exit 1) when a probe drifts beyond this many baseline CI half-widths")
	traceFile := flag.String("trace", "", "run with the round-level tracer and write a Chrome trace-event file (Perfetto) to this path")
	list := flag.Bool("list", false, "print the experiment registry (id, artefact, title) and exit without running anything")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (after a final GC) to this file")
	flag.Parse()
	// run carries the exit code out so the profile-writing defers below
	// execute before the process exits.
	code := func() int {
		if *cpuprofile != "" {
			f, err := os.Create(*cpuprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
				f.Close()
				return 1
			}
			defer func() {
				pprof.StopCPUProfile()
				f.Close()
			}()
		}
		if *memprofile != "" {
			defer func() {
				f, err := os.Create(*memprofile)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					return
				}
				defer f.Close()
				runtime.GC()
				if err := pprof.WriteHeapProfile(f); err != nil {
					fmt.Fprintln(os.Stderr, err)
				}
			}()
		}
		if *backend == "" {
			*backend = clique.DefaultBackend
		}
		if *format != "text" && *format != "json" {
			fmt.Fprintf(os.Stderr, "unknown format %q (text, json)\n", *format)
			return 2
		}
		if *list {
			if err := writeList(os.Stdout, *format); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			return 0
		}

		ids, err := exp.Resolve(*expFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}

		opts := exp.Options{Backend: *backend, Quick: *quick, Parallel: *parallel}
		// -trace: collect every experiment's RunTraces keyed by id (the
		// sink runs on worker goroutines under -parallel, hence the
		// mutex) and attach the cliquetrace/v1 block to JSON results.
		var traceMu sync.Mutex
		traced := map[string][]*trace.RunTrace{}
		if *traceFile != "" {
			opts.Trace = true
			opts.TraceSink = func(id string, traces []*trace.RunTrace) {
				traceMu.Lock()
				traced[id] = traces
				traceMu.Unlock()
			}
		}
		results, tim, err := exp.Run(ids, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		// -repeats: rerun the timed registry and attach the rounds/sec
		// distribution. The deterministic results come from the first
		// repeat (they are identical across repeats by contract); only
		// the timing block gains the extra samples.
		var thrDist *stats.Summary
		if *repeats > 1 && (*timing || *compare != "") {
			samples := []float64{tim.RoundsPerSec()}
			for i := 1; i < *repeats; i++ {
				_, timR, err := exp.Run(ids, opts)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					return 1
				}
				samples = append(samples, timR.RoundsPerSec())
			}
			d := stats.Summarize(samples, 0)
			thrDist = &d
		}
		attachDist := func(r *exp.Report) *exp.Report {
			if thrDist != nil && r.Throughput != nil {
				r.Throughput.Dist = thrDist
				r.Throughput.RoundsPerSec = thrDist.Mean
			}
			return r
		}
		if *traceFile != "" {
			if err := writeChromeTrace(*traceFile, ids, traced); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		}

		// The probes need a quiet process, so they run after the worker
		// pool has drained. Like Throughput, they ride the -timing opt-in
		// (without it the report stays deterministic) — but only where
		// something consumes them: the JSON envelope or -compare.
		var probes map[string]*exp.BenchProbe
		if *timing && (*format == "json" || *compare != "") {
			probes = map[string]*exp.BenchProbe{}
			for _, p := range exp.Probes() {
				if probes[p.Name], err = p.Measure(*backend); err != nil {
					fmt.Fprintln(os.Stderr, err)
					return 1
				}
			}
		}

		switch *format {
		case "text":
			// The text report always carries the throughput summary, as
			// it always has.
			attachDist(exp.NewReport(*backend, opts, results, tim, true)).WriteText(os.Stdout)
		case "json":
			report := attachDist(exp.NewReport(*backend, opts, results, tim, *timing))
			report.Probes = probes
			if err := report.WriteJSON(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		}

		if *compare != "" {
			current := attachDist(exp.NewReport(*backend, opts, results, tim, true))
			current.Probes = probes
			warnGate := exp.Gate{CIFactor: *ciFactor, Frac: *threshold}
			if err := compareBaseline(*compare, current, warnGate, *failCIFactor); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		}
		return 0
	}()
	os.Exit(code)
}

// writeList prints the registry without running anything. The JSON
// shape is exp.Info — the same one GET /v1/experiments of the cliqued
// service returns and cmd/genexperiments regenerates the
// EXPERIMENTS.md table from.
func writeList(w io.Writer, format string) error {
	infos := exp.Infos()
	if format == "json" {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(map[string]any{"experiments": infos})
	}
	wid, wart := 0, 0
	for _, e := range infos {
		wid, wart = max(wid, len(e.ID)), max(wart, len(e.Artefact))
	}
	for _, e := range infos {
		if _, err := fmt.Fprintf(w, "%-*s  %-*s  %s\n", wid, e.ID, wart, e.Artefact, e.Title); err != nil {
			return err
		}
	}
	return nil
}

// compareBaseline reports regressions against the stored baseline to
// stderr in GitHub Actions annotation form. Compare's findings are
// warnings; a probe regression beyond its fail fraction (or
// failCIFactor baseline CI half-widths) is an error annotation and
// fails the run.
func compareBaseline(path string, current *exp.Report, warnGate exp.Gate, failCIFactor float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("compare: %w", err)
	}
	var baseline exp.Report
	if err := json.Unmarshal(data, &baseline); err != nil {
		return fmt.Errorf("compare: parsing %s: %w", path, err)
	}
	warns := exp.Compare(&baseline, current, warnGate)
	fatal := exp.FatalRegressions(&baseline, current, failCIFactor)
	if len(warns) == 0 && len(fatal) == 0 {
		fmt.Fprintf(os.Stderr, "compare: no regressions vs %s\n", path)
		return nil
	}
	reported := map[string]bool{}
	for _, f := range fatal {
		reported[f.What] = true
		fmt.Fprintf(os.Stderr, "::error title=benchmark regression::%s\n", f)
	}
	for _, w := range warns {
		if !reported[w.What] {
			fmt.Fprintf(os.Stderr, "::warning title=benchmark regression::%s\n", w)
		}
	}
	if len(fatal) > 0 {
		return fmt.Errorf("compare: %d probe regression(s) beyond the fail thresholds vs %s", len(fatal), path)
	}
	return nil
}

// writeChromeTrace serialises the collected traces in the requested
// experiment order — not sink-completion order, which -parallel would
// scramble — so the Perfetto process list reads like the report.
func writeChromeTrace(path string, ids []string, traced map[string][]*trace.RunTrace) error {
	var all []*trace.RunTrace
	for _, id := range ids {
		all = append(all, traced[id]...)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := trace.WriteChrome(f, all); err != nil {
		f.Close()
		return fmt.Errorf("trace: writing %s: %w", path, err)
	}
	return f.Close()
}
