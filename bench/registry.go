package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"time"

	"repro/internal/exp"
	"repro/internal/trace"
)

// registry runs every registry experiment, the way `cliquebench`
// regenerates the paper's tables: lockstep backend, Parallel 1, full
// size (quick at toy scale). The experiments fix their own instances,
// so the seed only labels the run.
type registry struct {
	ids     []string
	golden  []any
	results []*exp.Result
	walls   map[string]time.Duration
	simWall time.Duration
	traces  []*trace.RunTrace
}

func (r *registry) options(e *env) exp.Options {
	return exp.Options{Backend: "lockstep", Quick: e.toy, Parallel: 1}
}

// setup loads the golden experiments and runs the registry once at
// quick size, which fills the engine pools and grows the heap.
func (r *registry) setup(e *env) error {
	golden, err := loadGolden(e.golden, e.toy)
	if err != nil {
		return err
	}
	r.golden, r.ids = golden, exp.IDs()
	_, _, err = exp.Run(r.ids, exp.Options{Backend: "lockstep", Quick: true})
	return err
}

func (r *registry) teardown() {}

// run runs each experiment through exp.Run. The pass's wall is the
// registry's wall. The operations p50/p99 report are simulated rounds:
// each experiment's rounds count once each, at the experiment's wall
// over its rounds.
func (r *registry) run(e *env, sp *spanLog) (phaseOut, error) {
	opts := r.options(e)
	out := phaseOut{attempted: len(r.ids)}
	r.traces = nil
	if sp != nil {
		opts.TraceSink = func(_ string, ts []*trace.RunTrace) { r.traces = append(r.traces, ts...) }
	}
	r.results = make([]*exp.Result, len(r.ids))
	r.walls = map[string]time.Duration{}
	r.simWall = 0
	root := sp.begin("registry", "", -1, 0)
	start := time.Now()
	for i, id := range r.ids {
		s := sp.begin("exp.Run", id, root, 0)
		t0 := time.Now()
		res, tim, err := exp.Run([]string{id}, opts)
		r.walls[id] = time.Since(t0)
		sp.end(s)
		if err != nil {
			e.logf("registry: %s: %v", id, err)
			out.failed++
			out.latency = append(out.latency, math.Inf(1))
			continue
		}
		r.results[i] = res[0]
		r.simWall += tim.SimWall
		out.latency = appendRounds(out.latency, r.walls[id].Nanoseconds(), res[0].Sim.Rounds)
	}
	out.wall = time.Since(start)
	sp.end(root)
	return out, nil
}

func (r *registry) verify(e *env, out phaseOut, sp *spanLog, o *outcome) error {
	got, err := experimentsJSON(r.results)
	if err != nil {
		return err
	}
	o.check("experiments_equal_golden", reflect.DeepEqual(got, r.golden),
		"the experiments array differs from %s at %s", e.golden, firstDiff(got, r.golden))
	if sp == nil {
		return nil
	}
	var sum time.Duration
	for id, d := range r.walls {
		o.layers["exp.wall_s."+id] = d.Seconds()
		sum += d
	}
	o.layers["exp.wall_sum_share"] = sum.Seconds() / out.wall.Seconds()
	o.layers["exp.sim_share"] = r.simWall.Seconds() / out.wall.Seconds()
	engineLayers(r.traces, o.layers)
	return nil
}

// loadGolden reads the timing-free experiments array of a cliquebench
// JSON report, which must have been made at the same size.
func loadGolden(path string, quick bool) ([]any, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the golden report: %w", err)
	}
	var rep struct {
		Quick       bool  `json:"quick"`
		Experiments []any `json:"experiments"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("parsing the golden report %s: %w", path, err)
	}
	if rep.Quick != quick {
		return nil, fmt.Errorf("golden report %s has quick=%v, the run has quick=%v", path, rep.Quick, quick)
	}
	return rep.Experiments, nil
}

// experimentsJSON renders results the way the envelope does and reads
// them back as plain JSON values, comparable with a golden array.
func experimentsJSON(results []*exp.Result) ([]any, error) {
	data, err := json.Marshal(results)
	if err != nil {
		return nil, err
	}
	var v []any
	return v, json.Unmarshal(data, &v)
}

// firstDiff names the first experiment whose JSON differs.
func firstDiff(got, want []any) string {
	for i := 0; i < max(len(got), len(want)); i++ {
		if i >= len(got) || i >= len(want) || !reflect.DeepEqual(got[i], want[i]) {
			if i < len(want) {
				if m, ok := want[i].(map[string]any); ok {
					return fmt.Sprintf("experiment %d (%v)", i, m["id"])
				}
			}
			return fmt.Sprintf("experiment %d", i)
		}
	}
	return "no experiment"
}
