package exp

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"repro/internal/clique"
	"repro/internal/stats"
)

// ProbeMetric is the quantity a probe reads per run and gates on.
type ProbeMetric string

const (
	// AllocsPerOp is the mean heap-allocation count per simulated run.
	// Allocation counts are near-deterministic, so the gate is tight and
	// a rise means a hot path started allocating.
	AllocsPerOp ProbeMetric = "allocs/op"
	// RoundsPerSec is best-of-runs sim-rounds/sec: the minimum wall time
	// over several runs estimates undisturbed speed far more stably than
	// a mean, which a 1% gate needs to stay above scheduler noise.
	RoundsPerSec ProbeMetric = "rounds/sec"
)

// Probe is one row of the machine-cost probe table: a canonical
// hot-path workload, the metric read from it, and the drift fractions
// at which Compare warns and FatalRegressions fails. Warn and Fail are
// the fallbacks for baselines without a recorded distribution; with
// one, the gate is CI-scaled (see Gate).
type Probe struct {
	Name         string
	N            int
	WordsPerPair int
	// Batch > 0 drives Batch copies of Program through one
	// clique.RunBatch, with the same runs executed serially as the
	// reference; 0 runs Program once per sample.
	Batch   int
	Program clique.NodeFunc
	Metric  ProbeMetric
	// Kind is the Regress* kind of a finding beyond Warn or Fail.
	Kind       string
	Warn, Fail float64
}

// probes is the probe table, in measurement order. Every probe runs
// probeRounds rounds and probeRuns timed or counted runs after one
// warm-up.
var probes = []Probe{
	// The canonical exchange: the per-round gossip pattern the serving
	// hot path runs continuously, through the collective layer.
	{Name: "exchange", N: 64, WordsPerPair: 1, Program: exchangeProgram,
		Metric: AllocsPerOp, Kind: RegressAllocs, Warn: 0.10, Fail: 0.25},
	// The bit-packed data plane's hot loop, exercising the pooled bitvec
	// scratch that keeps cliqued's boolean serving loop allocation-flat.
	{Name: "packed-mm", N: 64, WordsPerPair: 1, Program: packedMMProgram,
		Metric: AllocsPerOp, Kind: RegressAllocs, Warn: 0.10, Fail: 0.25},
	// The exchange with no tracer attached: the trace plane claims a nil
	// tracer costs under 1%, so both gates sit exactly there.
	{Name: "trace-off", N: 64, WordsPerPair: 1, Program: exchangeProgram,
		Metric: RoundsPerSec, Kind: RegressTraceOff, Warn: 0.01, Fail: 0.01},
	// The batched execution plane at the small seed-sweep shape, where
	// per-round scheduling dominates an n=8 exchange so cross-run
	// amortisation shows directly; at larger n local compute dominates
	// and a batch runs at serial speed, its node ids sharded over the
	// workers as in a serial run. A macro measurement, so it gets the
	// whole-registry throughput fraction.
	{Name: "batched", N: 8, WordsPerPair: 1, Batch: 8, Program: exchangeProgram,
		Metric: RoundsPerSec, Kind: RegressBatched, Warn: 0.25, Fail: 0.25},
}

// Probes returns the probe table in measurement order.
func Probes() []Probe { return slices.Clone(probes) }

func probeNamed(name string) (Probe, bool) {
	i := slices.IndexFunc(probes, func(p Probe) bool { return p.Name == name })
	if i < 0 {
		return Probe{}, false
	}
	return probes[i], true
}

// Kinds of Compare findings. FatalRegressions escalates the probe kinds
// (RegressAllocs, RegressTraceOff, RegressBatched); everything else is
// warn-only.
const (
	RegressAllocs     = "allocs"
	RegressThroughput = "throughput"
	RegressModelCost  = "model-cost"
	RegressMismatch   = "mismatch"
	RegressTraceOff   = "trace-off"
	RegressBatched    = "batched"
	// RegressMissing flags a metric tracked on one side only: a baseline
	// metric absent from the current report is lost gate coverage, and a
	// current metric absent from the baseline runs ungated until the
	// baseline is regenerated. Either way "nothing compared" is a
	// finding, not silence.
	RegressMissing = "missing"
)

// Gate configures how Compare and FatalRegressions decide "regressed".
//
// When the baseline metric carries a sample distribution (Dist blocks,
// written by cliquebench -repeats and the multi-run probes), the gate
// is variance-aware: a value regresses when it falls outside the
// baseline mean by more than CIFactor times the confidence-interval
// half-width (plus a small relative floor, so a freakishly quiet
// baseline cannot turn measurement noise into alerts). Baselines
// without a distribution fall back to a fixed fraction: the probe
// table's Warn or Fail, and Frac for the registry throughput block.
type Gate struct {
	// CIFactor scales the baseline CI half-width; 0 means
	// DefaultCIFactor.
	CIFactor float64
	// Frac is the registry-throughput fallback for distribution-free
	// baselines; 0 means throughputWarnFraction.
	Frac float64
}

// DefaultCIFactor is the warn gate's half-width multiplier: two 95%
// half-widths, roughly a four-sigma one-sided gate for small repeat
// counts. FailCIFactor is the fatal gate's, twice as wide.
const (
	DefaultCIFactor = 2
	FailCIFactor    = 2 * DefaultCIFactor
)

const (
	// minRelSlack is the relative-slack floor under the variance-aware
	// gate: even a zero-variance baseline tolerates this fraction of
	// drift before a timing metric alerts.
	minRelSlack = 0.02
	// throughputWarnFraction is the whole-registry rounds/sec drop
	// beyond which Compare warns when the baseline has no repeat
	// distribution.
	throughputWarnFraction = 0.25
	// allocAbsSlack is the absolute allocs/op slack on top of any gate,
	// absorbing runtime bookkeeping noise.
	allocAbsSlack = 16
)

func (g Gate) ciFactor() float64 {
	if g.CIFactor > 0 {
		return g.CIFactor
	}
	return DefaultCIFactor
}

// gateSlack is the tolerated drift around basePoint: CIFactor
// half-widths when a usable distribution exists (floored at
// minRelSlack), frac·basePoint otherwise.
func gateSlack(basePoint float64, dist *stats.Summary, ciFactor, frac float64) float64 {
	if dist != nil && dist.N >= 2 {
		slack := ciFactor * dist.HalfWidth()
		if floor := minRelSlack * basePoint; slack < floor {
			slack = floor
		}
		return slack
	}
	return frac * basePoint
}

// Regression is one finding produced by Compare or FatalRegressions.
type Regression struct {
	// What identifies the degraded quantity.
	What string
	// Kind classifies the finding (Regress* constants).
	Kind string
	// Baseline and Current are the compared values.
	Baseline, Current float64
}

func (r Regression) String() string {
	switch {
	case r.Baseline == 0 && r.Current == 0:
		return r.What
	case r.Baseline == 0:
		return fmt.Sprintf("%s: baseline 0, current %.0f", r.What, r.Current)
	}
	return fmt.Sprintf("%s: baseline %.0f, current %.0f (%+.1f%%)",
		r.What, r.Baseline, r.Current, 100*(r.Current-r.Baseline)/r.Baseline)
}

// Compare checks a fresh report against a stored baseline and returns
// warnings for simulator throughput regressions beyond the gate, for
// probe drift beyond each probe's Warn fraction, for any change in
// deterministic model costs (tolerance 0, since model costs only move
// when an algorithm changed), and for metrics tracked on one side only
// (RegressMissing). Gating is variance-aware when the baseline carries
// a distribution: a noisy runner widens its own tolerance instead of
// crying wolf. It never fails a build on its own; FatalRegressions is
// the failing half.
func Compare(baseline, current *Report, gate Gate) []Regression {
	var warns []Regression
	if baseline.Schema != current.Schema {
		warns = append(warns, Regression{Kind: RegressMismatch, What: fmt.Sprintf("schema mismatch: baseline %q vs current %q", baseline.Schema, current.Schema)})
		return warns
	}
	if baseline.Quick != current.Quick {
		warns = append(warns, Regression{Kind: RegressMismatch, What: "quick-mode mismatch: baseline and current report are not comparable"})
		return warns
	}
	// Range over every probe either side carries, so a baseline probe
	// this build no longer measures surfaces as missing too.
	names := slices.Collect(maps.Keys(baseline.Probes))
	for name := range current.Probes {
		if _, ok := baseline.Probes[name]; !ok {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	for _, name := range names {
		b, c := baseline.Probes[name], current.Probes[name]
		warns = append(warns, missingMetric(name+" probe", b != nil, c != nil)...)
		if p, ok := probeNamed(name); ok {
			warns = append(warns, p.compare(b, c, gate.ciFactor(), p.Warn)...)
		}
	}
	warns = append(warns, missingMetric("throughput block", baseline.Throughput != nil, current.Throughput != nil)...)
	if baseline.Throughput != nil && current.Throughput != nil {
		b := baseline.Throughput
		frac := gate.Frac
		if frac <= 0 {
			frac = throughputWarnFraction
		}
		slack := gateSlack(b.RoundsPerSec, b.Dist, gate.ciFactor(), frac)
		switch {
		case b.Workers != current.Throughput.Workers:
			warns = append(warns, Regression{Kind: RegressMismatch, What: fmt.Sprintf(
				"worker-count mismatch (baseline %d, current %d): throughput not compared",
				b.Workers, current.Throughput.Workers)})
		case b.RoundsPerSec > 0 &&
			current.Throughput.RoundsPerSec < b.RoundsPerSec-slack:
			warns = append(warns, Regression{
				What:     fmt.Sprintf("simulator throughput (rounds/sec, %s backend)", current.Backend),
				Kind:     RegressThroughput,
				Baseline: b.RoundsPerSec,
				Current:  current.Throughput.RoundsPerSec,
			})
		}
	}
	base := map[string]*Result{}
	for _, r := range baseline.Experiments {
		base[r.ID] = r
	}
	var ids []string
	for _, r := range current.Experiments {
		ids = append(ids, r.ID)
	}
	sort.Strings(ids)
	cur := map[string]*Result{}
	for _, r := range current.Experiments {
		cur[r.ID] = r
	}
	for _, id := range ids {
		b, ok := base[id]
		if !ok {
			continue // new experiment: nothing to compare
		}
		c := cur[id]
		if b.Sim.Rounds != c.Sim.Rounds {
			warns = append(warns, Regression{
				What:     fmt.Sprintf("%s: model cost changed (simulated rounds)", id),
				Kind:     RegressModelCost,
				Baseline: float64(b.Sim.Rounds), Current: float64(c.Sim.Rounds),
			})
		}
	}
	// A tracked experiment vanishing from the report is itself a
	// coverage regression (renamed, unregistered, or a subset run).
	var missing []string
	for _, r := range baseline.Experiments {
		if _, ok := cur[r.ID]; !ok {
			missing = append(missing, r.ID)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		warns = append(warns, Regression{Kind: RegressMissing, What: fmt.Sprintf(
			"baseline experiments missing from the current report: %s", strings.Join(missing, ", "))})
	}
	return warns
}

// FatalRegressions reports the probe regressions beyond each probe's
// Fail fraction (or ciFactor baseline CI half-widths, when the
// baseline recorded a distribution): a hot path that started
// allocating, a disabled tracer that started costing, or a batched
// plane that lost its speedup is a bug, not a judgement call. Shape
// mismatches and missing probes are Compare's warnings, never fatal.
func FatalRegressions(baseline, current *Report, ciFactor float64) []Regression {
	var out []Regression
	for _, p := range probes {
		for _, r := range p.compare(baseline.Probes[p.Name], current.Probes[p.Name], ciFactor, p.Fail) {
			if r.Kind == p.Kind {
				out = append(out, r)
			}
		}
	}
	return out
}

// compare checks one measurement of p against its baseline, tolerating
// ciFactor half-widths or frac of the baseline; nil on either side
// compares nothing (absence is reported by missingMetric).
func (p Probe) compare(b, c *BenchProbe, ciFactor, frac float64) []Regression {
	if b == nil || c == nil {
		return nil
	}
	if b.shape() != c.shape() {
		return []Regression{{Kind: RegressMismatch, What: fmt.Sprintf(
			"%s probe shape mismatch (baseline %s, current %s): not compared", p.Name, b.shape(), c.shape())}}
	}
	base, dist := b.value(p.Metric)
	cur, _ := c.value(p.Metric)
	slack := gateSlack(base, dist, ciFactor, frac)
	regressed := base > 0 && cur < base-slack
	if p.Metric == AllocsPerOp {
		regressed = cur > base+slack+allocAbsSlack
	}
	if !regressed {
		return nil
	}
	return []Regression{{
		What:     fmt.Sprintf("%s on the %s probe (%s backend)", p.Metric, p.Name, c.Backend),
		Kind:     p.Kind,
		Baseline: base,
		Current:  cur,
	}}
}

// missingMetric distinguishes "metric tracked on one side only" from
// "no regression": a comparison that silently skips a gated metric is
// itself a finding.
func missingMetric(what string, inBase, inCurrent bool) []Regression {
	switch {
	case inBase && !inCurrent:
		return []Regression{{Kind: RegressMissing, What: fmt.Sprintf(
			"%s present in the baseline but missing from the current report: not compared (run with -timing)", what)}}
	case !inBase && inCurrent:
		return []Regression{{Kind: RegressMissing, What: fmt.Sprintf(
			"%s missing from the baseline: running ungated (regenerate the baseline)", what)}}
	}
	return nil
}
