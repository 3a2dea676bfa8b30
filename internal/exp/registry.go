package exp

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/clique"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Experiment is one registered entry: an identifier, the paper artefact
// it reproduces, and a body that fills in the Result through the Ctx.
type Experiment struct {
	// ID is the stable key used by -exp, JSON, and benchmarks.
	ID string
	// Artefact names the paper artefact ("E1 / Figure 1").
	Artefact string
	// Title is the one-line description shown in reports and -exp help.
	Title string
	// Run computes the experiment. It reports findings through c and
	// aborts via c.Failf; it must be deterministic for a fixed
	// (Backend, Quick) pair.
	Run func(c *Ctx)
}

// registry holds the experiments in registration (= report) order.
var (
	regMu    sync.RWMutex
	registry []Experiment
	byID     = map[string]int{}
)

// Register adds an experiment; duplicate IDs panic at init time.
func Register(e Experiment) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := byID[e.ID]; dup {
		panic(fmt.Sprintf("exp: duplicate experiment id %q", e.ID))
	}
	if e.ID == "" || e.Run == nil {
		panic(fmt.Sprintf("exp: experiment %+v missing ID or Run", e))
	}
	byID[e.ID] = len(registry)
	registry = append(registry, e)
}

// All returns the experiments in report order.
func All() []Experiment {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// IDs returns the experiment ids in report order.
func IDs() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.ID
	}
	return ids
}

// Info is the serialisable registry-listing entry. It is the one shape
// shared by `cliquebench -list`, the cliqued service's /v1/experiments
// endpoint, and the cmd/genexperiments table generator, so the three
// listings cannot drift apart.
type Info struct {
	ID       string `json:"id"`
	Artefact string `json:"artefact"`
	Title    string `json:"title"`
}

// Infos returns the registry listing in report order.
func Infos() []Info {
	all := All()
	infos := make([]Info, len(all))
	for i, e := range all {
		infos[i] = Info{ID: e.ID, Artefact: e.Artefact, Title: e.Title}
	}
	return infos
}

// Get looks up one experiment by id.
func Get(id string) (Experiment, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	i, ok := byID[id]
	if !ok {
		return Experiment{}, false
	}
	return registry[i], true
}

// Help renders the -exp flag help from the registry so the flag can
// never drift from the dispatch: "all" plus every id with its artefact.
func Help() string {
	var sb strings.Builder
	sb.WriteString("experiment id: all")
	for _, e := range All() {
		sb.WriteString(", ")
		sb.WriteString(e.ID)
	}
	return sb.String()
}

// Resolve expands an -exp flag value ("all", one id, or a
// comma-separated list) into registry ids, rejecting unknown ones with
// an error that lists the valid set — also derived from the registry.
func Resolve(spec string) ([]string, error) {
	if spec == "" || spec == "all" {
		return IDs(), nil
	}
	var ids []string
	seen := map[string]bool{}
	for _, id := range strings.Split(spec, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		if _, ok := Get(id); !ok {
			return nil, fmt.Errorf("unknown experiment %q (valid: all, %s)", id, strings.Join(IDs(), ", "))
		}
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("no experiments selected (valid: all, %s)", strings.Join(IDs(), ", "))
	}
	return ids, nil
}

// Options configure a registry run.
type Options struct {
	// Backend is the execution engine name; empty means the default.
	Backend string
	// Quick shrinks instance sizes (tests, smoke jobs).
	Quick bool
	// Parallel is the worker-pool width; values < 2 run sequentially.
	// Results keep registry order regardless.
	Parallel int
	// Progress, when non-nil, is invoked after every simulated run with
	// a Progress snapshot (cumulative SimCost plus current throughput).
	// It is called on the goroutine executing the experiment; with
	// Parallel > 1 that means concurrently, so a shared Progress must be
	// safe for concurrent use. Long-running callers (the cliqued SSE
	// stream) use it to report liveness without touching the
	// deterministic Result.
	Progress func(Progress)
	// Trace enables per-run trace collection and attaches the
	// cliquetrace/v1 summary block to every Result.
	Trace bool
	// TraceSink, when non-nil, also enables tracing and receives each
	// experiment's full RunTraces once it completes — the input to
	// trace.WriteChrome. Like Progress it runs on the experiment's
	// goroutine, concurrently under Parallel > 1.
	TraceSink func(id string, traces []*trace.RunTrace)
}

// traced reports whether runs should collect traces.
func (o Options) traced() bool { return o.Trace || o.TraceSink != nil }

// Timing is the nondeterministic half of a run, kept out of Result so
// serialised Results stay bit-identical across runs and worker counts.
type Timing struct {
	// SimWall is wall-clock spent inside simulated runs only.
	SimWall time.Duration
	// Rounds mirrors the summed SimCost.Rounds for convenience.
	Rounds int64
}

// RoundsPerSec is the throughput figure tracked by the perf trajectory.
func (t Timing) RoundsPerSec() float64 {
	if t.SimWall <= 0 {
		return 0
	}
	return float64(t.Rounds) / t.SimWall.Seconds()
}

// RunOne executes a single registered experiment without cancellation.
func RunOne(id string, opts Options) (*Result, Timing, error) {
	return RunOneContext(context.Background(), id, opts)
}

// RunOneContext executes a single registered experiment. Cancelling ctx
// aborts the experiment at its next simulated-run boundary (individual
// clique runs are not interrupted mid-flight; they are short relative
// to any realistic deadline) and returns the context's error.
func RunOneContext(ctx context.Context, id string, opts Options) (*Result, Timing, error) {
	e, ok := Get(id)
	if !ok {
		return nil, Timing{}, fmt.Errorf("exp: unknown experiment %q", id)
	}
	return RunExperiment(ctx, e, opts)
}

// RunExperiment executes one Experiment value, which need not be in the
// registry: the cliqued daemon runs ad-hoc algorithm requests by
// wrapping them as ephemeral Experiments, so they get the same counted
// Ctx, the same Result envelope, and the same cancellation semantics as
// registered experiments.
func RunExperiment(ctx context.Context, e Experiment, opts Options) (res *Result, tim Timing, err error) {
	if e.ID == "" || e.Run == nil {
		return nil, Timing{}, fmt.Errorf("exp: experiment %q missing ID or Run", e.ID)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, Timing{}, fmt.Errorf("exp %s: %w", e.ID, err)
	}
	backend := opts.Backend
	if backend == "" {
		backend = clique.DefaultBackend
	}
	c := &Ctx{Backend: backend, Quick: opts.Quick,
		ctx: ctx, progress: opts.Progress, tracing: opts.traced(),
		res: &Result{ID: e.ID, Artefact: e.Artefact, Title: e.Title}}
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(failure)
			if !ok {
				panic(r)
			}
			res, err = nil, f.err
		}
		tim = Timing{SimWall: c.simWall}
		if res != nil {
			tim.Rounds = res.Sim.Rounds
		}
	}()
	e.Run(c)
	if opts.Trace {
		rep := trace.NewReport()
		for _, t := range c.traces {
			rep.Runs = append(rep.Runs, t.Summary())
		}
		c.res.Trace = rep
	}
	if opts.TraceSink != nil {
		opts.TraceSink(e.ID, c.traces)
	}
	return c.res, Timing{}, nil
}

// Run executes the given experiments without cancellation; see
// RunContext.
func Run(ids []string, opts Options) ([]*Result, Timing, error) {
	return RunContext(context.Background(), ids, opts)
}

// RunContext executes the given experiments — all independent of each
// other — on a worker pool of opts.Parallel goroutines and returns
// their Results in the requested order plus the aggregate Timing. The
// ordering, and every byte of every Result, is identical whatever the
// worker count; only Timing varies. Cancelling ctx makes every
// still-running or not-yet-started experiment fail fast, surfacing the
// context's error.
func RunContext(ctx context.Context, ids []string, opts Options) ([]*Result, Timing, error) {
	type slot struct {
		res *Result
		tim Timing
		err error
	}
	slots := make([]slot, len(ids))
	workers := opts.Parallel
	if workers < 2 || len(ids) < 2 {
		for i, id := range ids {
			slots[i].res, slots[i].tim, slots[i].err = RunOneContext(ctx, id, opts)
		}
	} else {
		if workers > len(ids) {
			workers = len(ids)
		}
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					slots[i].res, slots[i].tim, slots[i].err = RunOneContext(ctx, ids[i], opts)
				}
			}()
		}
		for i := range ids {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
	}

	results := make([]*Result, len(ids))
	var total Timing
	var firstErr error
	for i := range slots {
		if slots[i].err != nil && firstErr == nil {
			firstErr = slots[i].err
		}
		results[i] = slots[i].res
		total.SimWall += slots[i].tim.SimWall
		total.Rounds += slots[i].tim.Rounds
	}
	if firstErr != nil {
		return nil, Timing{}, firstErr
	}
	return results, total, nil
}

// Report is the serialised envelope of a registry run: the JSON schema
// cliquebench emits, CI archives, and the BENCH_*.json perf trajectory
// stores. Everything outside Throughput and Probes is deterministic.
type Report struct {
	Schema  string `json:"schema"`
	Backend string `json:"backend"`
	// Quick records whether reduced sizes were used; quick and full
	// reports are not comparable.
	Quick       bool      `json:"quick,omitempty"`
	Experiments []*Result `json:"experiments"`
	// Throughput is only attached when the caller asked for timing
	// (cliquebench -timing); without it the whole Report is
	// bit-identical run to run and across -parallel settings.
	Throughput *Throughput `json:"throughput,omitempty"`
	// Probes holds one measurement per probe-table row (see Probes),
	// keyed by probe name, attached under the same timing opt-in as
	// Throughput.
	Probes map[string]*BenchProbe `json:"probes,omitempty"`
	// Build attributes the report to the producing binary (module
	// version, VCS revision, toolchain, available backends). It is
	// deterministic for a fixed binary, so envelopes stay bit-identical
	// run to run and across -parallel.
	Build *BuildInfo `json:"build"`
}

// Throughput is the measured simulator performance of one run. WallNS
// sums wall-clock spent inside simulated runs across all workers, so
// comparisons are only meaningful between runs with the same Workers
// value (the CI gate pins it).
type Throughput struct {
	SimRounds    int64   `json:"sim_rounds"`
	WallNS       int64   `json:"wall_ns"`
	RoundsPerSec float64 `json:"rounds_per_sec"`
	Workers      int     `json:"workers,omitempty"`
	// Dist is the rounds/sec distribution across cliquebench -repeats
	// registry runs (first repeat's block fields above, all repeats
	// here). When present, RoundsPerSec is its mean and Compare gates
	// against the confidence interval instead of a fixed fraction.
	Dist *stats.Summary `json:"dist,omitempty"`
}

// NewReport assembles the envelope; pass withTiming=false for
// deterministic output.
func NewReport(backend string, opts Options, results []*Result, tim Timing, withTiming bool) *Report {
	r := &Report{Schema: SchemaVersion, Backend: backend, Quick: opts.Quick,
		Experiments: results, Build: Build()}
	if withTiming {
		workers := opts.Parallel
		if workers < 2 {
			workers = 1
		}
		r.Throughput = &Throughput{
			SimRounds:    tim.Rounds,
			WallNS:       tim.SimWall.Nanoseconds(),
			RoundsPerSec: tim.RoundsPerSec(),
			Workers:      workers,
		}
	}
	return r
}
