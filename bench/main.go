// Command bench is the repository benchmark. It runs one workload
// against the simulator and the cliqued service through their public
// packages, checks what they produced, and prints the metrics as JSON:
//
//	bash bench/run.sh --workload registry --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh -compare A.jsonl B.jsonl
//
// The metric names, units, directions and bounds live in BENCHMARK.json
// at the repository root; the command reads them from there. With
// --trace 0 it prints the end-to-end metrics, with --trace 1 the
// per-layer ones from a separate traced run (see README.md). The last
// line of standard output is the result object; the line before it is
// a self-describing record (workload, checks, sample counts) that
// -compare reads back. The exit code is non-zero when a check fails,
// when an operation fails, or when the run itself cannot complete.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// env is one invocation's settings, shared by every workload.
type env struct {
	seed     uint64
	seconds  time.Duration // timed duration of the serve workloads
	traceDir string
	golden   string // registry golden report
	toy      bool   // toy scale, for the package's smoke tests
	procs    int    // nproc: set-up clients and connections, sweep check lanes
	tmp      string // scratch directory inside the checkout
	log      io.Writer
}

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.log, "bench: "+format+"\n", args...)
}

// run is main without the process exit, so tests can drive it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = fs.Int("seconds", 10, "least timed duration of the serve workloads, in seconds")
		traced   = fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
		work     = fs.String("work", ".bench_build", "directory for scratch ledgers (tmp/) and the traced pass's <workload>.spans.json and <workload>.cpu.pprof (trace/)")
		specPath = fs.String("spec", "BENCHMARK.json", "benchmark definition: metric names, units, directions and bounds")
		golden   = fs.String("golden", "BENCH_baseline.json", "report whose experiments array the registry workload must reproduce")
		toy      = fs.Bool("toy", false, "run at toy scale (registry quick, small serve load, sweep at n=64)")
		compare  = fs.Bool("compare", false, "compare two files of result records: -compare A.jsonl B.jsonl")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two files: -compare A.jsonl B.jsonl")
			return 2
		}
		return runCompare(spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	w, ok := newRunner(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown -workload %q (valid: %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(stderr, "bench: -trace = %d, need 0 or 1\n", *traced)
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintf(stderr, "bench: -seconds = %d, need >= 1\n", *seconds)
		return 2
	}
	tmp := filepath.Join(*work, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traceDir: filepath.Join(*work, "trace"), golden: *golden, toy: *toy,
		procs: runtime.GOMAXPROCS(0), tmp: tmp, log: stderr}

	var o *outcome
	if *traced == 1 {
		o, err = tracedRun(e, *name, w)
	} else {
		o, err = timedRun(e, w)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", *name, err)
		return 1
	}
	rec, err := o.record(spec, *name, *seed, *traced == 1)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", *name, err)
		return 1
	}
	for _, c := range o.checks {
		if !c.OK {
			fmt.Fprintf(stderr, "bench: %s: check %s failed: %s\n", *name, c.Name, c.Detail)
		}
	}
	line, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	final, err := json.Marshal(rec.result)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", line, final)
	if !rec.Correct {
		return 1
	}
	return 0
}

// metricSpec is one metric as BENCHMARK.json defines it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the command reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the benchmark definition: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s defines no end_to_end or per_layer metrics", path)
	}
	return &s, nil
}

// check is one output check. A failed check fails the run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// outcome is what one workload run measured and checked.
type outcome struct {
	attempted, failed int
	checks            []check
	e2e               map[string]float64
	samples           map[string]int
	layers            map[string]float64
	// info holds figures printed beside the metrics that are neither
	// end-to-end nor per-layer, such as the replayed engine stage.
	info map[string]float64
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, samples: map[string]int{},
		layers: map[string]float64{}, info: map[string]float64{}}
}

func (o *outcome) setInfo(name string, v float64) { o.info[name] = v }

// check records one named check; detail explains a failure.
func (o *outcome) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	o.checks = append(o.checks, c)
}

// latency records the p50/p99 of per-operation latencies in ms, with
// their sample count; timeOrdered latencies take p99 per window.
func (o *outcome) latency(ms []float64, timeOrdered bool) {
	p50, n := percentile(ms, 50)
	p99, _ := percentile(ms, 99)
	if timeOrdered {
		p99 = windowedP99(ms)
	}
	o.e2e["p50_ms"], o.e2e["p99_ms"] = p50, p99
	o.samples["p50_ms"], o.samples["p99_ms"] = n, n
}

// p99Window is the fewest samples a p99 window holds: ten beyond it.
const p99Window = 1000

// windowedP99 splits latencies in send order into windows of at least
// p99Window samples and returns the median of the windows' p99s, so a
// host stall that slows one window does not decide the run's tail. With
// fewer than 2·p99Window samples it is the plain p99.
func windowedP99(ms []float64) float64 {
	k := max(len(ms)/p99Window, 1)
	p99s := make([]float64, k)
	for w := range p99s {
		hi := (w + 1) * len(ms) / k
		p99s[w], _ = percentile(ms[w*len(ms)/k:hi], 99)
	}
	return median(p99s)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object the benchmark contract reads: the last line of
// standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is the self-describing line printed before the result; it is
// what -compare reads back.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Traced   bool   `json:"traced"`
	result
	Checks  []check            `json:"checks"`
	Samples map[string]int     `json:"samples,omitempty"`
	Info    map[string]float64 `json:"info,omitempty"`
	Layers  map[string]float64 `json:"layers,omitempty"`
}

// record builds the output. Untraced runs must have measured every
// end-to-end metric; a per-layer metric a workload does not exercise
// reads 0.
func (o *outcome) record(spec *benchSpec, name string, seed uint64, traced bool) (*record, error) {
	r := &record{Workload: name, Seed: seed, Traced: traced, Checks: o.checks, Samples: o.samples, Info: o.info}
	r.Attempted, r.Failed = o.attempted, o.failed
	r.Correct = o.failed == 0 && o.attempted > 0
	for _, c := range o.checks {
		r.Correct = r.Correct && c.OK
	}
	r.Metrics = map[string]metricValue{}
	if traced {
		r.Layers = o.layers
		for _, m := range spec.PerLayer {
			r.Metrics[m.Name] = metricValue{finite(o.layers[m.Name]), m.Unit}
		}
		return r, nil
	}
	var missing []string
	for _, m := range spec.EndToEnd {
		v, ok := o.e2e[m.Name]
		if !ok {
			missing = append(missing, m.Name)
			continue
		}
		r.Metrics[m.Name] = metricValue{finite(v), m.Unit}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("end-to-end metrics not measured: %s", strings.Join(missing, ", "))
	}
	return r, nil
}

// finite maps a +Inf latency (a failed request at that percentile) to
// the largest float, which JSON can carry; such a run is never correct.
func finite(v float64) float64 {
	switch {
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsNaN(v):
		return 0
	}
	return v
}

// percentile returns the nearest-rank p-th percentile of xs and the
// number of samples it was taken over. +Inf samples (failed requests)
// sort last, so they count as missing every latency limit.
func percentile(xs []float64, p float64) (float64, int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1], len(s)
}

func median(xs []float64) float64 {
	v, _ := percentile(xs, 50)
	return v
}
