package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/clique"
	"repro/internal/graph"
	"repro/internal/grid"
	"repro/internal/mst"
	"repro/internal/trace"
	"repro/internal/workload"
)

// sweepAlgs are the sweep-large algorithms: the MST family from dense
// (Borůvka) to nearly silent (message-frugal) traffic, plus k-VC.
var sweepAlgs = []string{"mst", "mst-sketch", "mst-sparse", "k-vc"}

// sweepSeeds is how many instance seeds, s onwards, each cell runs on.
// mst-sparse's rounds at n = 1024 range from 48 to 104 with the
// instance, and its allocation and wall with them, so the grid's totals
// follow the seeds unless several instances average them out.
const sweepSeeds = 3

// sweep runs grid.Run over sweepAlgs × n × sweepSeeds seeds with one
// warm-up and one recorded repeat per cell, as cliquegrid does, but one
// cell at a time: each lockstep run already spreads its nodes over
// every core, and two cells at once made each cell's wall depend on
// which cell ran beside it (see README.md).
type sweep struct {
	spec    *grid.Spec
	records []grid.RunRecord
}

func (s *sweep) grid(e *env, ns []int) *grid.Spec {
	seeds := make([]uint64, sweepSeeds)
	for i := range seeds {
		seeds[i] = e.seed + uint64(i)
	}
	spec := &grid.Spec{Name: "sweep-large", Repeats: 1, Warmup: 1, Backend: "lockstep"}
	for _, alg := range sweepAlgs {
		spec.Experiments = append(spec.Experiments, grid.Block{Algorithm: alg, Ns: ns, Seeds: seeds})
	}
	return spec
}

// setup builds the grid and runs it once at a small n, which takes the
// lazy initialisation of every package on the path out of the timed
// phase.
func (s *sweep) setup(e *env) error {
	ns, warm := []int{512, 1024}, []int{128}
	if e.toy {
		ns, warm = []int{64}, []int{16}
	}
	s.spec = s.grid(e, ns)
	if err := s.spec.Validate(); err != nil {
		return err
	}
	_, _, err := grid.Run(context.Background(), s.grid(e, warm), grid.Options{Parallel: 1})
	return err
}

func (s *sweep) teardown() {}

// run times grid.Run. The operations p50/p99 report are simulated
// rounds: each recorded cell's rounds count once at its mean round time.
func (s *sweep) run(e *env, sp *spanLog) (phaseOut, error) {
	root := sp.begin("grid.Run", "sweep-large", -1, 0)
	start := time.Now()
	_, recs, err := grid.Run(context.Background(), s.spec, grid.Options{Parallel: 1})
	wall := time.Since(start)
	sp.end(root)
	if err != nil {
		return phaseOut{}, err
	}
	s.records = recs
	out := phaseOut{wall: wall, attempted: len(recs)}
	for _, r := range recs {
		out.latency = appendRounds(out.latency, r.WallNS, r.Rounds)
	}
	return out, nil
}

// verify reruns every cell directly with clique.Run and compares its
// rounds and words with the grid's record; for the MST family it also
// compares the forest's weight with Kruskal's. On the traced pass the
// reruns carry trace collectors, which give the engine and comm layers.
func (s *sweep) verify(e *env, out phaseOut, sp *spanLog, o *outcome) error {
	type cellCheck struct {
		rec    grid.RunRecord
		err    error
		trace  *trace.RunTrace
		makeMS float64
	}
	checks := make([]cellCheck, len(s.records))
	var wg sync.WaitGroup
	jobs := make(chan int)
	for lane := 0; lane < e.procs; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := range jobs {
				c := &checks[i]
				c.rec = s.records[i]
				c.trace, c.makeMS, c.err = checkCell(c.rec.Cell, c.rec, sp, lane)
			}
		}(lane)
	}
	for i := range checks {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	var traces []*trace.RunTrace
	var makeMS []float64
	mismatches := 0
	var first error
	for _, c := range checks {
		if c.err != nil {
			mismatches++
			if first == nil {
				first = c.err
			}
		}
		if c.trace != nil {
			traces = append(traces, c.trace)
			makeMS = append(makeMS, c.makeMS)
		}
	}
	o.failed += mismatches
	o.check("cells_equal_direct_runs", mismatches == 0, "%d of %d cells: %v", mismatches, len(checks), first)
	if sp == nil {
		return nil
	}
	engineLayers(traces, o.layers)
	o.layers["graph.make_ms"] = median(makeMS)
	walls := map[string][]float64{}
	for _, r := range s.records {
		key := fmt.Sprintf("grid.cell_wall_ms.%s.n%d", r.Cell.Algorithm, r.Cell.N)
		walls[key] = append(walls[key], ms(time.Duration(r.WallNS)))
	}
	for key, ws := range walls {
		var sum float64
		for _, w := range ws {
			sum += w
		}
		o.layers[key] = sum / float64(len(ws))
	}
	return nil
}

// checkCell runs one cell directly and returns its trace (traced pass
// only) and the catalogue's instance-generation time in ms. When sp is
// non-nil it times the catalogue's Make and attaches a trace collector.
func checkCell(c grid.Cell, rec grid.RunRecord, sp *spanLog, lane int) (*trace.RunTrace, float64, error) {
	alg, ok := workload.Get(c.Algorithm)
	if !ok {
		return nil, 0, fmt.Errorf("unknown algorithm %q", c.Algorithm)
	}
	key := fmt.Sprintf("%s/seed=%d", c.GroupKey(), c.Seed)
	root := sp.begin("check", key, -1, lane)
	defer sp.end(root)
	var makeMS float64
	cfg := clique.Config{N: c.N, WordsPerPair: c.WPP, Backend: "lockstep"}
	var col *trace.Collector
	if sp != nil {
		s := sp.begin("workload.Make", key, root, lane)
		t0 := time.Now()
		alg.Make(c.N, c.Seed)
		makeMS = ms(time.Since(t0))
		sp.end(s)
		col = trace.NewCollector(key, c.N, c.WPP)
		col.SetBackend(cfg.Backend)
		cfg.Tracer = col
	}
	prog, forest, isMST := mstProgram(c.Algorithm, c.N, c.Seed)
	if !isMST {
		prog = alg.Make(c.N, c.Seed)
	}
	s := sp.begin("clique.Run", key, root, lane)
	res, err := clique.Run(cfg, prog)
	sp.end(s)
	var tr *trace.RunTrace
	if col != nil {
		tr = col.Finish()
	}
	switch {
	case err != nil:
		return tr, makeMS, fmt.Errorf("%s: %w", key, err)
	case int64(res.Stats.Rounds) != rec.Rounds || res.Stats.WordsSent != rec.Words:
		return tr, makeMS, fmt.Errorf("%s: direct run %d rounds/%d words, grid %d/%d", key,
			res.Stats.Rounds, res.Stats.WordsSent, rec.Rounds, rec.Words)
	case isMST:
		if err := forest(); err != nil {
			return tr, makeMS, fmt.Errorf("%s: %w", key, err)
		}
	}
	return tr, makeMS, nil
}

// mstProgram rebuilds the catalogue's instance and program for an MST
// family cell, keeping the forest the catalogue's program discards.
// The instance parameters mirror internal/workload; if they drift, the
// rounds/words comparison with the grid's own run fails. The returned
// check compares the forest's weight with mst.KruskalOracle.
func mstProgram(alg string, n int, seed uint64) (clique.NodeFunc, func() error, bool) {
	p := 0.3
	if alg == "mst-sparse" {
		p = 0.5
	}
	var find func(nd *clique.Node, row []int64) []mst.Edge
	switch alg {
	case "mst":
		find = func(nd *clique.Node, row []int64) []mst.Edge { return mst.Find(nd, row) }
	case "mst-sketch":
		find = func(nd *clique.Node, row []int64) []mst.Edge { f, _ := mst.SketchFind(nd, row, seed); return f }
	case "mst-sparse":
		find = func(nd *clique.Node, row []int64) []mst.Edge { f, _ := mst.SparseFind(nd, row, seed); return f }
	default:
		return nil, nil, false
	}
	g := graph.GnpWeighted(n, p, 60, false, seed)
	var mu sync.Mutex
	var got []mst.Edge
	returned := false
	prog := func(nd *clique.Node) {
		// SparseFind returns the forest at its coordinator only; the
		// other variants return it everywhere.
		if f := find(nd, g.W[nd.ID()]); f != nil {
			mu.Lock()
			got, returned = f, true
			mu.Unlock()
		}
	}
	check := func() error {
		want, edges := mst.KruskalOracle(g)
		mu.Lock()
		defer mu.Unlock()
		if !returned {
			return fmt.Errorf("no node returned a forest")
		}
		if w := mst.Weight(got); w != want || len(got) != edges {
			return fmt.Errorf("forest weight %d over %d edges, Kruskal %d over %d", w, len(got), want, edges)
		}
		return nil
	}
	return prog, check, true
}
