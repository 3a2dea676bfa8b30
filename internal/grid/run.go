package grid

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/clique"
	"repro/internal/exp"
	"repro/internal/workload"
)

// RunRecord is one recorded repeat of one cell: the deterministic
// model cost (rounds, words — identical for every repeat of the cell)
// plus the repeat's wall-clock measurement.
type RunRecord struct {
	Cell   Cell
	Repeat int
	// Rounds and Words are the run's model cost.
	Rounds int64
	Words  int64
	// WallNS and RoundsPerSec are the repeat's timing.
	WallNS       int64
	RoundsPerSec float64
}

// Options configure one grid execution.
type Options struct {
	// Backend overrides the spec's backend (highest precedence).
	Backend string
	// Repeats and Warmup override the spec's values when > 0.
	Repeats int
	Warmup  int
	// Parallel is the worker-pool width over cells; values < 2 run
	// sequentially. Repeats of one cell always run back-to-back on one
	// worker, so repeat-to-repeat variance measures the machine, not
	// the scheduler. Record order is deterministic regardless.
	Parallel int
	// Progress, when non-nil, is called after every recorded run with
	// cumulative counts. It may be called concurrently under Parallel.
	Progress func(done, total int)
	// Batch groups algorithm cells sharing an (algorithm, n, wpp) shape
	// — seed sweeps — into one batched engine execution per repeat;
	// without it every algorithm cell is a batch of one. Model costs are
	// the same either way; each repeat's wall clock is measured per batch
	// and attributed to cells by their share of the batch's rounds, so
	// per-cell throughput stays comparable. Experiment cells always run
	// alone.
	Batch bool
}

// resolve folds spec defaults and option overrides into concrete knobs.
func (o Options) resolve(s *Spec) (backend string, repeats, warmup int) {
	backend = s.Backend
	if o.Backend != "" {
		backend = o.Backend
	}
	if backend == "" {
		backend = clique.DefaultBackend
	}
	repeats = s.Repeats
	if o.Repeats > 0 {
		repeats = o.Repeats
	}
	if repeats == 0 {
		repeats = DefaultRepeats
	}
	warmup = s.Warmup
	if o.Warmup > 0 {
		warmup = o.Warmup
	}
	if warmup == 0 {
		warmup = DefaultWarmup
	}
	return backend, repeats, warmup
}

// Run executes the grid and returns the records in deterministic order
// (cell index, then repeat) plus the resolved knobs via the Report it
// summarises into. Cancelling ctx aborts at the next run boundary.
func Run(ctx context.Context, spec *Spec, opts Options) (*Report, []RunRecord, error) {
	if err := spec.Validate(); err != nil {
		return nil, nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	backend, repeats, warmup := opts.resolve(spec)
	if err := validBackend(backend); err != nil {
		return nil, nil, err
	}
	cells := spec.Expand()
	total := len(cells) * repeats
	if total > MaxRuns {
		return nil, nil, fmt.Errorf("grid: %d cells × %d repeats exceeds the %d-run limit", len(cells), repeats, MaxRuns)
	}

	perCell := make([][]RunRecord, len(cells))
	var done sync.WaitGroup
	var mu sync.Mutex
	recorded := 0
	var firstErr error
	setErr := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	progress := func() {
		if opts.Progress == nil {
			return
		}
		mu.Lock()
		recorded++
		n := recorded
		mu.Unlock()
		opts.Progress(n, total)
	}

	// The unit of work is a group of cell indices: singletons normally,
	// same-shape seed sweeps under Batch. Records land in perCell by
	// cell index either way, so output order is deterministic.
	groups := make([][]int, 0, len(cells))
	if opts.Batch {
		groups = batchGroups(cells)
	} else {
		for i := range cells {
			groups = append(groups, []int{i})
		}
	}

	// Algorithm groups — a single cell unless Batch grouped a seed sweep —
	// run through one batched runner; experiment cells run alone.
	execGroup := func(g []int) {
		if c := cells[g[0]]; c.Kind != CellAlgorithm {
			recs, err := runCell(ctx, c, backend, repeats, warmup, progress)
			if err != nil {
				setErr(err)
				return
			}
			perCell[g[0]] = recs
			return
		}
		group := make([]Cell, len(g))
		for j, i := range g {
			group[j] = cells[i]
		}
		recsByCell, err := runCellsBatched(ctx, group, backend, repeats, warmup, progress)
		if err != nil {
			setErr(err)
			return
		}
		for j, i := range g {
			perCell[i] = recsByCell[j]
		}
	}

	workers := opts.Parallel
	if workers < 2 || len(groups) < 2 {
		for _, g := range groups {
			execGroup(g)
		}
	} else {
		if workers > len(groups) {
			workers = len(groups)
		}
		jobs := make(chan []int)
		for w := 0; w < workers; w++ {
			done.Add(1)
			go func() {
				defer done.Done()
				for g := range jobs {
					execGroup(g)
				}
			}()
		}
		for _, g := range groups {
			jobs <- g
		}
		close(jobs)
		done.Wait()
	}
	if firstErr != nil {
		return nil, nil, firstErr
	}

	records := make([]RunRecord, 0, total)
	for _, recs := range perCell {
		records = append(records, recs...)
	}
	rep := Summarize(spec, records, backend, repeats, warmup)
	return rep, records, nil
}

// batchGroups partitions cells into batchable groups: algorithm cells
// sharing an (algorithm, n, wpp) shape — i.e. differing only by seed —
// group together in first-appearance order; everything else stays a
// singleton.
func batchGroups(cells []Cell) [][]int {
	type shape struct {
		alg    string
		n, wpp int
	}
	seen := map[shape]int{}
	var groups [][]int
	for i, c := range cells {
		if c.Kind != CellAlgorithm {
			groups = append(groups, []int{i})
			continue
		}
		k := shape{c.Algorithm, c.N, c.WPP}
		if gi, ok := seen[k]; ok {
			groups[gi] = append(groups[gi], i)
		} else {
			seen[k] = len(groups)
			groups = append(groups, []int{i})
		}
	}
	return groups
}

// runCellsBatched executes a same-shape group of algorithm cells — a
// group of one when Batch is off: every warmup and repeat is one batched
// engine execution covering the whole group. Per-cell model costs come
// from the per-run results (bit-identical to serial runs); the batch's
// wall clock is attributed to cells proportionally to their rounds. The
// per-cell determinism check is identical to runCell's.
func runCellsBatched(ctx context.Context, group []Cell, backend string, repeats, warmup int, progress func()) ([][]RunRecord, error) {
	alg, ok := workload.Get(group[0].Algorithm)
	if !ok {
		return nil, fmt.Errorf("grid: cell %d: unknown algorithm %q", group[0].Index, group[0].Algorithm)
	}
	cfg := clique.Config{N: group[0].N, WordsPerPair: group[0].WPP, Backend: backend}

	one := func() ([]*clique.Result, int64, error) {
		if err := ctx.Err(); err != nil {
			return nil, 0, fmt.Errorf("grid: cell %d (%s): %w", group[0].Index, group[0].GroupKey(), err)
		}
		start := time.Now()
		// Instance generation is rebuilt per execution and stays inside
		// the timed region.
		progs := make([]clique.NodeFunc, len(group))
		for j, c := range group {
			progs[j] = alg.Make(c.N, c.Seed)
		}
		results, errs := clique.RunBatch(cfg, progs)
		wall := time.Since(start)
		for j, err := range errs {
			if err != nil {
				return nil, 0, fmt.Errorf("grid: cell %d (%s): %w", group[j].Index, group[j].GroupKey(), err)
			}
		}
		return results, wall.Nanoseconds(), nil
	}

	for i := 0; i < warmup; i++ {
		if _, _, err := one(); err != nil {
			return nil, err
		}
	}
	recs := make([][]RunRecord, len(group))
	for r := 0; r < repeats; r++ {
		results, wallNS, err := one()
		if err != nil {
			return nil, err
		}
		var totalRounds int64
		for _, res := range results {
			totalRounds += int64(res.Stats.Rounds)
		}
		for j, c := range group {
			rounds := int64(results[j].Stats.Rounds)
			words := results[j].Stats.WordsSent
			cellWall := int64(0)
			if totalRounds > 0 {
				cellWall = wallNS * rounds / totalRounds
			} else if len(group) > 0 {
				cellWall = wallNS / int64(len(group))
			}
			rec := RunRecord{Cell: c, Repeat: r, Rounds: rounds, Words: words, WallNS: cellWall}
			if cellWall > 0 {
				rec.RoundsPerSec = float64(rounds) / (float64(cellWall) / 1e9)
			}
			if r > 0 && (rounds != recs[j][0].Rounds || words != recs[j][0].Words) {
				return nil, fmt.Errorf(
					"grid: cell %d (%s): repeat %d cost %d rounds/%d words, repeat 0 cost %d/%d — model nondeterminism",
					c.Index, c.GroupKey(), r, rounds, words, recs[j][0].Rounds, recs[j][0].Words)
			}
			recs[j] = append(recs[j], rec)
			if progress != nil {
				progress()
			}
		}
	}
	return recs, nil
}

// runCell executes one experiment cell: warmup runs discarded, repeats
// recorded, and the model-cost determinism of the repeats verified.
func runCell(ctx context.Context, c Cell, backend string, repeats, warmup int, progress func()) ([]RunRecord, error) {
	if c.Kind != CellExperiment {
		return nil, fmt.Errorf("grid: cell %d: unknown kind %q", c.Index, c.Kind)
	}
	one := func() (rounds, words, wallNS int64, err error) {
		if err := ctx.Err(); err != nil {
			return 0, 0, 0, fmt.Errorf("grid: cell %d (%s): %w", c.Index, c.GroupKey(), err)
		}
		res, tim, err := exp.RunOneContext(ctx, c.Experiment, exp.Options{Backend: backend, Quick: c.Quick})
		if err != nil {
			return 0, 0, 0, fmt.Errorf("grid: cell %d (%s): %w", c.Index, c.GroupKey(), err)
		}
		return res.Sim.Rounds, res.Sim.Words, tim.SimWall.Nanoseconds(), nil
	}

	for i := 0; i < warmup; i++ {
		if _, _, _, err := one(); err != nil {
			return nil, err
		}
	}
	recs := make([]RunRecord, 0, repeats)
	for r := 0; r < repeats; r++ {
		rounds, words, wallNS, err := one()
		if err != nil {
			return nil, err
		}
		rec := RunRecord{Cell: c, Repeat: r, Rounds: rounds, Words: words, WallNS: wallNS}
		if wallNS > 0 {
			rec.RoundsPerSec = float64(rounds) / (float64(wallNS) / 1e9)
		}
		// The model is deterministic: a repeat that changed the round or
		// word count means the simulator (not the measurement) broke.
		if r > 0 && (rounds != recs[0].Rounds || words != recs[0].Words) {
			return nil, fmt.Errorf(
				"grid: cell %d (%s): repeat %d cost %d rounds/%d words, repeat 0 cost %d/%d — model nondeterminism",
				c.Index, c.GroupKey(), r, rounds, words, recs[0].Rounds, recs[0].Words)
		}
		recs = append(recs, rec)
		if progress != nil {
			progress()
		}
	}
	return recs, nil
}
