package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"repro/internal/engine"
)

// runner is one benchmark workload. timedRun and tracedRun call setup
// one or more times, tearing the previous state down in between, then
// run once on the last state, then verify.
type runner interface {
	// setup makes the inputs from the seed and brings the system to the
	// state the timed phase starts from. It cleans up after itself on
	// error.
	setup(e *env) error
	teardown()
	// run is the timed phase. A non-nil sp marks the traced pass: the
	// workload then records spans around its calls and attaches the
	// program's trace collectors.
	run(e *env, sp *spanLog) (phaseOut, error)
	// verify checks what run produced, counting mismatched operations
	// as failed, and on the traced pass adds the per-layer metrics.
	verify(e *env, out phaseOut, sp *spanLog, o *outcome) error
}

// phaseOut is what every timed phase reports.
type phaseOut struct {
	// wall is the time taken by the workload's fixed unit of work: the
	// median over the phase's units.
	wall time.Duration
	// units is how many units of work the phase ran: one for the batch
	// workloads, the blocks of the serve ones. alloc_mb is per unit.
	units int
	// latency is each operation's latency in ms, +Inf for a failure:
	// an HTTP request for the serve workloads, a simulated round for
	// the batch ones.
	latency []float64
	// timeOrdered marks latency as in send order, so p99 is taken per
	// window (see windowedP99).
	timeOrdered       bool
	attempted, failed int
}

func workloadNames() []string {
	return []string{"registry", "serve-miss", "serve-hit", "sweep-large"}
}

func newRunner(name string) (runner, bool) {
	switch name {
	case "registry":
		return &registry{}, true
	case "serve-miss":
		return &serveMiss{}, true
	case "serve-hit":
		return &serveHit{}, true
	case "sweep-large":
		return &sweep{}, true
	}
	return nil, false
}

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 5

// timedRun is the untraced run that yields the end-to-end metrics.
func timedRun(e *env, w runner) (*outcome, error) {
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			w.teardown()
		}
		t0 := time.Now()
		if err := w.setup(e); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.teardown()
	ph := beginPhase()
	out, err := w.run(e, nil)
	if err != nil {
		return nil, err
	}
	d := ph.end()
	o := newOutcome()
	o.attempted, o.failed = out.attempted, out.failed
	o.e2e["setup_s"] = median(setups)
	o.e2e["wall_s"] = out.wall.Seconds()
	o.latency(out.latency, out.timeOrdered)
	o.e2e["alloc_mb"] = d.allocMB / float64(max(out.units, 1))
	o.e2e["max_rss_mb"] = maxRSSMB()
	e.logf("setup %.3fs (median of %d), timed phase %.3fs", o.e2e["setup_s"], setupRepeats, d.wall.Seconds())
	return o, w.verify(e, out, nil, o)
}

// tracedRun is the separate traced run that yields the per-layer
// metrics. It first runs the timed phase untraced as the reference for
// trace.overhead_ratio, then sets up afresh and runs it again with
// spans, the program's collectors and a CPU profile.
func tracedRun(e *env, name string, w runner) (*outcome, error) {
	if err := w.setup(e); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	ref, err := w.run(e, nil)
	w.teardown()
	if err != nil {
		return nil, err
	}
	if err := w.setup(e); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer w.teardown()
	if err := os.MkdirAll(e.traceDir, 0o755); err != nil {
		return nil, err
	}
	profPath := filepath.Join(e.traceDir, name+".cpu.pprof")
	prof, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	sp := newSpanLog()
	ph := beginPhase()
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return nil, err
	}
	out, err := w.run(e, sp)
	pprof.StopCPUProfile()
	d := ph.end()
	if cerr := prof.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	o := newOutcome()
	o.attempted, o.failed = out.attempted, out.failed
	o.layers["trace.overhead_ratio"] = out.wall.Seconds() / ref.wall.Seconds()
	o.layers["gc.cycles"] = float64(d.gcCycles)
	o.layers["gc.pause_ms"] = d.gcPauseMS
	if d.arenaGets > 0 {
		o.layers["engine.arena_hit_ratio"] = d.arenaHitRatio
	}
	if d.scratchGets > 0 {
		o.layers["engine.scratch_hit_ratio"] = d.scratchHitRatio
	}
	shares, err := cpuShares(profPath)
	if err != nil {
		return nil, err
	}
	for m, v := range shares {
		o.layers["cpu_share."+m] = v
	}
	if err := w.verify(e, out, sp, o); err != nil {
		return nil, err
	}
	spansPath := filepath.Join(e.traceDir, name+".spans.json")
	if err := sp.writeChrome(spansPath, name); err != nil {
		return nil, err
	}
	e.logf("wrote %s and %s", spansPath, profPath)
	return o, nil
}

// phase snapshots the process counters around a timed phase.
type phase struct {
	start              time.Time
	mem                runtime.MemStats
	arenaH, arenaM     int64
	scratchH, scratchM int64
}

type phaseDelta struct {
	wall                           time.Duration
	allocMB, gcPauseMS             float64
	gcCycles                       uint32
	arenaGets, scratchGets         int64
	arenaHitRatio, scratchHitRatio float64
}

// beginPhase collects garbage first, so the phase does not pay for
// the set-up's heap.
func beginPhase() *phase {
	runtime.GC()
	p := &phase{}
	runtime.ReadMemStats(&p.mem)
	p.arenaH, p.arenaM = engine.PoolStats()
	p.scratchH, p.scratchM = engine.ScratchStats()
	p.start = time.Now()
	return p
}

func (p *phase) end() phaseDelta {
	d := phaseDelta{wall: time.Since(p.start)}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	d.allocMB = float64(m.TotalAlloc-p.mem.TotalAlloc) / (1 << 20)
	d.gcCycles = m.NumGC - p.mem.NumGC
	d.gcPauseMS = float64(m.PauseTotalNs-p.mem.PauseTotalNs) / 1e6
	ah, am := engine.PoolStats()
	sh, sm := engine.ScratchStats()
	d.arenaGets = (ah - p.arenaH) + (am - p.arenaM)
	d.scratchGets = (sh - p.scratchH) + (sm - p.scratchM)
	if d.arenaGets > 0 {
		d.arenaHitRatio = float64(ah-p.arenaH) / float64(d.arenaGets)
	}
	if d.scratchGets > 0 {
		d.scratchHitRatio = float64(sh-p.scratchH) / float64(d.scratchGets)
	}
	return d
}

// maxRSSMB is the process's peak resident set (getrusage ru_maxrss,
// KiB on Linux) in MB of 2^20 bytes.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// appendRounds adds one latency sample per simulated round of a run,
// each at the run's mean round time in ms.
func appendRounds(lat []float64, wallNS, rounds int64) []float64 {
	per := float64(wallNS) / float64(rounds) / 1e6
	for i := int64(0); i < rounds; i++ {
		lat = append(lat, per)
	}
	return lat
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
