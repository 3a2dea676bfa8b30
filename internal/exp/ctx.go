package exp

import (
	"context"
	"fmt"
	"time"

	"repro/internal/clique"
	"repro/internal/graph"
	"repro/internal/nondet"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Progress is one liveness snapshot, delivered to Options.Progress
// after every simulated run. SimCost is the experiment's cumulative
// model cost; the wall-clock fields add the observer's view: total
// simulated wall time so far and the just-finished run's throughput
// (current, not a lifetime average — a cold first run does not dilute
// the steady state).
type Progress struct {
	SimCost
	// WallNS is cumulative wall-clock spent inside simulated runs.
	WallNS int64 `json:"wall_ns"`
	// RoundsPerSec is the just-finished run's rounds over its own wall
	// time; 0 when the run failed or was too fast to time.
	RoundsPerSec float64 `json:"rounds_per_sec"`
}

// Ctx is the handle an experiment body runs against. It routes every
// simulated execution through counted wrappers so the per-experiment
// SimCost (and the process throughput report built from it) covers the
// whole run, and it accumulates the Result being built. A Ctx is used
// by exactly one experiment on one goroutine; the parallel runner gives
// each experiment its own, which is what makes `-parallel` sound where
// the old per-process simTime/simRounds globals were not.
type Ctx struct {
	// Backend selects the execution engine for every simulated run.
	Backend string
	// Quick shrinks instance sizes so the full registry runs in
	// seconds; used by tests and benchmark smoke jobs. Experiment
	// bodies consult it through Sizes.
	Quick bool

	// ctx cancels the experiment between simulated runs; nil means
	// never (direct Ctx construction in tests). progress, when set, is
	// told a Progress snapshot after every simulated run.
	ctx      context.Context
	progress func(Progress)

	// tracing enables per-run trace collection: every simulated run gets a
	// fresh labelled collector and the finished RunTraces accumulate in
	// traces (runIdx labels them in execution order).
	tracing bool
	traces  []*trace.RunTrace
	runIdx  int

	res      *Result
	simWall  time.Duration
	curTable int
}

// checkCancelled aborts the experiment when its context has been
// cancelled; Run and Verify call it before starting a simulated run so
// cancellation takes effect at the next run boundary.
func (c *Ctx) checkCancelled() {
	if c.ctx != nil {
		if err := c.ctx.Err(); err != nil {
			panic(failure{fmt.Errorf("exp %s: %w", c.res.ID, err)})
		}
	}
}

// Sizes returns full in normal mode and quick in Quick mode; bodies
// use it to pick instance sizes without branching inline.
func (c *Ctx) Sizes(full, quick []int) []int {
	if c.Quick {
		return quick
	}
	return full
}

// failure aborts an experiment body; the runner recovers it.
type failure struct{ err error }

// Failf aborts the experiment with an error, e.g. when a simulated run
// returns one. The registry runner turns it into RunOne's error.
func (c *Ctx) Failf(format string, args ...any) {
	panic(failure{fmt.Errorf("exp %s: %s", c.res.ID, fmt.Sprintf(format, args...))})
}

// Run executes one simulated run on the configured backend and folds
// its model cost into the experiment's SimCost. Every simulation an
// experiment makes must go through here, RunWorkloads or Verify so the
// rounds/sec summary covers the whole report.
func (c *Ctx) Run(cfg clique.Config, f clique.NodeFunc) (*clique.Result, error) {
	c.checkCancelled()
	cfg.Backend = c.Backend
	col := c.startTrace(&cfg)
	start := time.Now()
	res, err := clique.Run(cfg, f)
	c.endTrace(col)
	c.account(res, err, time.Since(start))
	return res, err
}

// RunWorkloads runs catalogue specs on an n-node clique with wpp words
// per pair as one workload.RunBatch and folds each run's model cost
// into the experiment's SimCost exactly as the equivalent serial Run
// loop would: runs are accounted in order, and the first failing run
// counts as a run without rounds and aborts the experiment (Failf), so
// the deterministic Result envelope is bit-identical to the serial loop
// that stops at the first error. Traced experiments need one collector
// per run, so they run each spec as a batch of one.
func (c *Ctx) RunWorkloads(n, wpp int, specs ...workload.Spec) []workload.Run {
	cfg := clique.Config{N: n, WordsPerPair: wpp, Backend: c.Backend}
	var runs []workload.Run
	if c.tracing {
		for _, s := range specs {
			c.checkCancelled()
			cfg := cfg
			col := c.startTrace(&cfg)
			runs = append(runs, workload.RunBatch(cfg, []workload.Spec{s})...)
			c.endTrace(col)
			c.accountOrFail(runs[len(runs)-1])
		}
		return runs
	}
	c.checkCancelled()
	runs = workload.RunBatch(cfg, specs)
	for _, r := range runs {
		c.accountOrFail(r)
	}
	return runs
}

// accountOrFail accounts one workload run and aborts the experiment if
// it failed.
func (c *Ctx) accountOrFail(r workload.Run) {
	c.account(r.Result, r.Err, r.Wall)
	if r.Err != nil {
		c.Failf("%v", r.Err)
	}
}

// Record folds an already-completed run's model cost into the
// experiment's SimCost, for callers that executed the run outside the
// Ctx: the serving daemon's batch coalescer runs whole groups of jobs
// through one workload.RunBatch and then builds each job's envelope
// through its own Ctx afterwards. wall is the run's share of the
// batch's wall clock. The Result built from a recorded run is identical
// to the one RunWorkloads would have built running it alone, because
// batched per-run results are bit-identical to serial ones.
func (c *Ctx) Record(res *clique.Result, wall time.Duration) {
	c.account(res, nil, wall)
}

// account folds one finished run into the SimCost and reports
// progress; a failed run counts as a run without rounds.
func (c *Ctx) account(res *clique.Result, err error, wall time.Duration) {
	c.simWall += wall
	c.res.Sim.Runs++
	rounds := 0
	if err == nil {
		rounds = res.Stats.Rounds
		c.res.Sim.Rounds += int64(rounds)
		c.res.Sim.Words += res.Stats.WordsSent
	}
	c.reportProgress(rounds, wall)
}

// startTrace attaches a fresh labelled collector to cfg on traced
// experiments; it returns nil (and leaves cfg alone) otherwise.
func (c *Ctx) startTrace(cfg *clique.Config) *trace.Collector {
	if !c.tracing {
		return nil
	}
	wpp := cfg.WordsPerPair
	if wpp == 0 {
		wpp = 1
	}
	col := trace.NewCollector(
		fmt.Sprintf("run %d (n=%d, wpp=%d)", c.runIdx, cfg.N, wpp), cfg.N, wpp)
	col.SetBackend(c.Backend)
	cfg.Tracer = col
	c.runIdx++
	return col
}

// endTrace seals a run's collector and banks its RunTrace.
func (c *Ctx) endTrace(col *trace.Collector) {
	if col != nil {
		c.traces = append(c.traces, col.Finish())
	}
}

// reportProgress delivers one Progress snapshot; rounds and wall are
// the just-finished run's.
func (c *Ctx) reportProgress(rounds int, wall time.Duration) {
	if c.progress == nil {
		return
	}
	rps := 0.0
	if rounds > 0 && wall > 0 {
		rps = float64(rounds) / wall.Seconds()
	}
	c.progress(Progress{SimCost: c.res.Sim, WallNS: c.simWall.Nanoseconds(), RoundsPerSec: rps})
}

// Rounds runs f on an n-node clique and returns the round count,
// aborting the experiment on error.
func (c *Ctx) Rounds(n, wpp int, f clique.NodeFunc) int {
	res, err := c.Run(clique.Config{N: n, WordsPerPair: wpp}, f)
	if err != nil {
		c.Failf("%v", err)
	}
	return res.Stats.Rounds
}

// Verify is Run for nondeterministic verifier executions.
func (c *Ctx) Verify(cfg clique.Config, g *graph.Graph, alg nondet.Algorithm, z nondet.Labelling) (nondet.Verdict, error) {
	c.checkCancelled()
	cfg.Backend = c.Backend
	if cfg.N == 0 {
		cfg.N = g.N
	}
	col := c.startTrace(&cfg)
	start := time.Now()
	v, err := nondet.RunVerifier(cfg, g, alg, z)
	c.endTrace(col)
	c.account(v.Result, err, time.Since(start))
	return v, err
}

// Table starts a new typed table and returns a builder for its rows.
func (c *Ctx) Table(name string, columns ...string) *TableBuilder {
	c.res.Tables = append(c.res.Tables, Table{Name: name, Columns: columns})
	return &TableBuilder{c: c, idx: len(c.res.Tables) - 1}
}

// Notef appends a free-form report line after the tables.
func (c *Ctx) Notef(format string, args ...any) {
	c.res.Notes = append(c.res.Notes, fmt.Sprintf(format, args...))
}

// Metric records one scalar finding.
func (c *Ctx) Metric(name string, value float64, unit string) {
	c.res.Metrics = append(c.res.Metrics, Metric{Name: name, Value: value, Unit: unit})
}

// TableBuilder appends rows to one table of the Result under
// construction.
type TableBuilder struct {
	c   *Ctx
	idx int
}

// Row appends one row; it must have as many cells as the table has
// columns.
func (t *TableBuilder) Row(cells ...Cell) {
	tab := &t.c.res.Tables[t.idx]
	if len(cells) != len(tab.Columns) {
		t.c.Failf("table %q: row has %d cells, want %d", tab.Name, len(cells), len(tab.Columns))
	}
	tab.Rows = append(tab.Rows, cells)
}
