package exp

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/bitvec"
	"repro/internal/clique"
	"repro/internal/comm"
	"repro/internal/matmul"
	"repro/internal/stats"
)

// BenchProbe is one measurement of a probe-table row (see Probes): a
// canonical hot-path workload run repeatedly while its metric is read.
// Like Throughput, probes ride in a report's Probes map only when timing
// was requested, so the deterministic envelope is unaffected. The
// committed baseline's values are the references for Compare's warn
// gate and FatalRegressions' fail gate.
type BenchProbe struct {
	Name         string  `json:"name"`
	Backend      string  `json:"backend"`
	N            int     `json:"n"`
	WordsPerPair int     `json:"words_per_pair"`
	Rounds       int     `json:"rounds"`
	Runs         int     `json:"runs"`
	AllocsPerOp  float64 `json:"allocs_per_op,omitempty"`
	// RoundsPerSec is the best-of-runs aggregate sim-rounds/sec, set
	// only by RoundsPerSec probes (allocation probes leave it 0:
	// allocation counts are near-deterministic, wall time is not, and
	// mixing the two would subject the alloc gate to timing noise).
	RoundsPerSec float64 `json:"rounds_per_sec,omitempty"`
	// AllocsDist is the per-run allocation-count distribution behind
	// AllocsPerOp; the variance-aware gate widens its tolerance by the
	// baseline's recorded spread.
	AllocsDist *stats.Summary `json:"allocs_dist,omitempty"`
	// RPSDist is the per-run rounds/sec distribution behind the
	// best-of-runs RoundsPerSec.
	RPSDist *stats.Summary `json:"rounds_per_sec_dist,omitempty"`
	// Batch is the number of independent runs per batched engine
	// execution; set only by batched probes.
	Batch int `json:"batch,omitempty"`
	// SerialRoundsPerSec is a batched probe's reference measurement:
	// the same runs executed back-to-back through the serial engine
	// path, best-of-runs aggregate sim-rounds/sec.
	SerialRoundsPerSec float64 `json:"serial_rounds_per_sec,omitempty"`
	// Speedup is RoundsPerSec over SerialRoundsPerSec — the committed
	// evidence for the batched execution plane's throughput claim.
	Speedup float64 `json:"speedup,omitempty"`
}

// probeShape is what makes two measurements comparable.
type probeShape struct {
	name, backend         string
	n, wpp, rounds, batch int
}

func (s probeShape) String() string {
	return fmt.Sprintf("%s/%s n=%d wpp=%d rounds=%d batch=%d", s.name, s.backend, s.n, s.wpp, s.rounds, s.batch)
}

func (b *BenchProbe) shape() probeShape {
	return probeShape{b.Name, b.Backend, b.N, b.WordsPerPair, b.Rounds, b.Batch}
}

// value returns the gated figure for metric m and its distribution.
func (b *BenchProbe) value(m ProbeMetric) (float64, *stats.Summary) {
	if m == AllocsPerOp {
		return b.AllocsPerOp, b.AllocsDist
	}
	return b.RoundsPerSec, b.RPSDist
}

// Every probe runs probeRounds rounds per run — long enough that
// steady-state rounds dominate setup — and reads probeRuns runs after
// one warm-up.
const (
	probeRounds = 256
	probeRuns   = 5
)

// exchangeProgram is the canonical exchange node program: one
// broadcast word per node per round, read back through the reused
// collective table.
func exchangeProgram(nd *clique.Node) {
	var table []uint64
	for r := 0; r < probeRounds; r++ {
		table = comm.BroadcastWordInto(nd, uint64(nd.ID()+r), table)
	}
}

// packedMMProgram is the packed boolean-MM node program: one
// word-parallel naive boolean product per round (at n=64 the packed row
// is a single word, so each product costs exactly one round), the
// steady-state loop of the bit-packed data plane.
func packedMMProgram(nd *clique.Node) {
	n := nd.N()
	row := bitvec.NewRow(n)
	for i := nd.ID() % 3; i < n; i += 3 {
		row.Set(i)
	}
	for r := 0; r < probeRounds; r++ {
		matmul.MulNaiveBits(nd, row, row)
	}
}

// Measure runs p on the given backend and reads its metric over
// probeRuns runs after one warm-up (so pooled mailboxes and lazily
// grown buffers do not bill the steady state). A batched probe also
// measures its serial reference first. It must run while no other
// simulations execute concurrently; cliquebench measures after its
// worker pool has drained.
func (p Probe) Measure(backend string) (*BenchProbe, error) {
	cfg := clique.Config{N: p.N, WordsPerPair: p.WordsPerPair, Backend: backend}
	check := func(res *clique.Result, err error) error {
		if err != nil {
			return err
		}
		if res.Stats.Rounds != probeRounds {
			return fmt.Errorf("exp: %s probe ran %d rounds, want %d", p.Name, res.Stats.Rounds, probeRounds)
		}
		return nil
	}
	serial := func() error {
		for range max(p.Batch, 1) {
			if err := check(clique.Run(cfg, p.Program)); err != nil {
				return err
			}
		}
		return nil
	}
	bp := &BenchProbe{Name: p.Name, Backend: backend, N: p.N, WordsPerPair: p.WordsPerPair,
		Rounds: probeRounds, Runs: probeRuns, Batch: p.Batch}
	dist, err := p.sample(serial)
	if err != nil {
		return nil, err
	}
	if p.Metric == AllocsPerOp {
		bp.AllocsPerOp, bp.AllocsDist = dist.Mean, &dist
		return bp, nil
	}
	bp.RoundsPerSec, bp.RPSDist = dist.Max, &dist
	if p.Batch == 0 {
		return bp, nil
	}
	progs := slices.Repeat([]clique.NodeFunc{p.Program}, p.Batch)
	batched := func() error {
		results, errs := clique.RunBatch(cfg, progs)
		for i := range results {
			if err := check(results[i], errs[i]); err != nil {
				return err
			}
		}
		return nil
	}
	if dist, err = p.sample(batched); err != nil {
		return nil, err
	}
	bp.SerialRoundsPerSec = bp.RoundsPerSec
	bp.RoundsPerSec, bp.RPSDist = dist.Max, &dist
	if bp.SerialRoundsPerSec > 0 {
		bp.Speedup = bp.RoundsPerSec / bp.SerialRoundsPerSec
	}
	return bp, nil
}

// sample runs fn once to warm up, then probeRuns times, and summarises
// one reading of p.Metric per run: its heap allocations, or its
// aggregate sim-rounds/sec (whose Max is the best-of-runs figure).
func (p Probe) sample(fn func() error) (stats.Summary, error) {
	if err := fn(); err != nil {
		return stats.Summary{}, err
	}
	// Per-run Mallocs deltas; ReadMemStats itself does not allocate.
	var before, after runtime.MemStats
	if p.Metric == AllocsPerOp {
		runtime.GC()
		runtime.ReadMemStats(&before)
	}
	rounds := float64(max(p.Batch, 1) * probeRounds)
	samples := make([]float64, 0, probeRuns)
	for range probeRuns {
		start := time.Now()
		if err := fn(); err != nil {
			return stats.Summary{}, err
		}
		wall := time.Since(start)
		switch {
		case p.Metric == AllocsPerOp:
			runtime.ReadMemStats(&after)
			samples = append(samples, float64(after.Mallocs-before.Mallocs))
			before = after
		case wall > 0:
			samples = append(samples, rounds/wall.Seconds())
		}
	}
	return stats.Summarize(samples, 0), nil
}
