package exp_test

import (
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/stats"
)

// probeRow looks one probe-table row up by name.
func probeRow(t *testing.T, name string) exp.Probe {
	t.Helper()
	ps := exp.Probes()
	i := slices.IndexFunc(ps, func(p exp.Probe) bool { return p.Name == name })
	if i < 0 {
		t.Fatalf("probe table has no %q row", name)
	}
	return ps[i]
}

// TestMeasureProbes sanity-checks every probe's instrument on the
// lockstep backend: the measurement carries the row's shape (the key
// the baseline comparison matches on) and a plausible value of the
// row's metric, and leaves the other metric alone so neither gate is
// fed the other's noise.
func TestMeasureProbes(t *testing.T) {
	for _, want := range []struct {
		name   string
		n      int
		batch  int
		metric exp.ProbeMetric
	}{
		{"exchange", 64, 0, exp.AllocsPerOp},
		{"packed-mm", 64, 0, exp.AllocsPerOp},
		{"trace-off", 64, 0, exp.RoundsPerSec},
		{"batched", 8, 8, exp.RoundsPerSec},
	} {
		t.Run(want.name, func(t *testing.T) {
			p := probeRow(t, want.name)
			if p.N != want.n || p.Batch != want.batch || p.Metric != want.metric {
				t.Fatalf("table row %+v, want n=%d batch=%d metric=%s", p, want.n, want.batch, want.metric)
			}
			if p.Metric == exp.RoundsPerSec && testing.Short() {
				t.Skip("timing probe")
			}
			probe, err := p.Measure("lockstep")
			if err != nil {
				t.Fatal(err)
			}
			if probe.Name != p.Name || probe.Backend != "lockstep" || probe.N != p.N ||
				probe.WordsPerPair != p.WordsPerPair || probe.Rounds != 256 || probe.Batch != p.Batch {
				t.Fatalf("unexpected probe shape: %+v", probe)
			}
			switch p.Metric {
			case exp.AllocsPerOp:
				// The canonical exchange (64 nodes x 256 rounds of
				// one-word gossip) stays around a thousand allocations per
				// run and the packed product allocates from pooled
				// scratch; anything in the 10^5 range means the batched
				// collective path or the pooling came unhooked.
				if probe.AllocsPerOp <= 0 || probe.AllocsPerOp > 100_000 {
					t.Errorf("allocs/op = %v, want in (0, 100000]", probe.AllocsPerOp)
				}
				if probe.RoundsPerSec != 0 {
					t.Errorf("allocation probe set RoundsPerSec = %v", probe.RoundsPerSec)
				}
			case exp.RoundsPerSec:
				if probe.RoundsPerSec <= 0 {
					t.Errorf("rounds/sec = %v, want > 0", probe.RoundsPerSec)
				}
				if probe.AllocsPerOp != 0 {
					t.Errorf("throughput probe set AllocsPerOp = %v; it must leave the alloc gate alone", probe.AllocsPerOp)
				}
				if p.Batch > 0 && (probe.SerialRoundsPerSec <= 0 || probe.Speedup <= 0) {
					t.Errorf("batched probe serial rounds/sec = %v, speedup = %v, want both > 0",
						probe.SerialRoundsPerSec, probe.Speedup)
				}
			}
		})
	}
	if _, err := exp.Probes()[0].Measure("no-such-backend"); err == nil {
		t.Error("unknown backend accepted")
	}
}

// TestCompareProbes pins each probe's warn and fail gates: Compare
// warns beyond the row's Warn fraction, FatalRegressions fails beyond
// its Fail fraction (or CI-scaled, when the baseline recorded a
// distribution), and a shape change or a probe on one side only is a
// warning that never reaches the fatal gate.
func TestCompareProbes(t *testing.T) {
	// probe builds a lockstep measurement of the named row whose gated
	// metric reads v.
	probe := func(name string, v float64) *exp.BenchProbe {
		p := probeRow(t, name)
		bp := &exp.BenchProbe{Name: name, Backend: "lockstep", N: p.N,
			WordsPerPair: p.WordsPerPair, Rounds: 256, Runs: 5, Batch: p.Batch}
		if p.Metric == exp.AllocsPerOp {
			bp.AllocsPerOp = v
		} else {
			bp.RoundsPerSec = v
		}
		return bp
	}
	with := func(bp *exp.BenchProbe, edit func(*exp.BenchProbe)) *exp.BenchProbe {
		edit(bp)
		return bp
	}
	d := stats.Summarize([]float64{990, 1000, 1010}, 0)
	hw := d.HalfWidth()
	withDist := func(bp *exp.BenchProbe) { bp.AllocsPerOp, bp.AllocsDist = d.Mean, &d }

	type probeCase struct {
		desc      string
		base, cur *exp.BenchProbe // nil: absent from that report
		ciFactor  float64         // the fatal gate's; 0 means exp.FailCIFactor
		warns     []string        // Compare's finding kinds, in order
		fatal     int
		contains  string // substring of the first warning
	}
	groups := []struct {
		name  string
		cases []probeCase
	}{
		{"exchange", []probeCase{
			{desc: "5% growth passes the 10% warn gate",
				base: probe("exchange", 1000), cur: probe("exchange", 1050)},
			{desc: "doubled allocations warn and fail",
				base: probe("exchange", 1000), cur: probe("exchange", 2000),
				warns: []string{exp.RegressAllocs}, fatal: 1, contains: "allocs/op"},
			{desc: "20% growth warns but stays inside the 25% fail gate",
				base: probe("exchange", 1000), cur: probe("exchange", 1200),
				warns: []string{exp.RegressAllocs}},
			{desc: "30% growth fails the 25% fail gate",
				base: probe("exchange", 1000), cur: probe("exchange", 1300),
				warns: []string{exp.RegressAllocs}, fatal: 1},
			{desc: "a shape change is reported instead of compared",
				base:  with(probe("exchange", 1000), func(bp *exp.BenchProbe) { bp.N = 128 }),
				cur:   probe("exchange", 5000),
				warns: []string{exp.RegressMismatch}, contains: "shape mismatch"},
			// A probe tracked by the baseline but absent from the current
			// report is lost gate coverage, not a pass.
			{desc: "a vanished probe is a missing finding",
				base:  probe("exchange", 1000),
				warns: []string{exp.RegressMissing}, contains: "missing from the current report"},
			// The mirror image — a probe the baseline never tracked —
			// runs ungated and deserves the same kind of flag.
			{desc: "an ungated probe is a missing finding",
				cur:   probe("exchange", 1000),
				warns: []string{exp.RegressMissing}, contains: "missing from the baseline"},
		}},
		{"packed-mm", []probeCase{
			{desc: "5% growth passes the 10% warn gate",
				base: probe("packed-mm", 1000), cur: probe("packed-mm", 1050)},
			{desc: "doubled allocations warn and fail",
				base: probe("packed-mm", 1000), cur: probe("packed-mm", 2000),
				warns: []string{exp.RegressAllocs}, fatal: 1, contains: "packed-mm"},
		}},
		{"trace-off", []probeCase{
			{desc: "a 0.5% drop stays inside the 1% gates",
				base: probe("trace-off", 100000), cur: probe("trace-off", 99500)},
			{desc: "a 2% drop warns and fails",
				base: probe("trace-off", 100000), cur: probe("trace-off", 98000),
				warns: []string{exp.RegressTraceOff}, fatal: 1},
			// A shape mismatch must not silently pass the fatal gate as
			// "fine": it is a mismatch warning, not a regression.
			{desc: "a shape change is reported instead of compared",
				base:  probe("trace-off", 100000),
				cur:   with(probe("trace-off", 50000), func(bp *exp.BenchProbe) { bp.N = 32 }),
				warns: []string{exp.RegressMismatch}},
		}},
		{"batched", []probeCase{
			{desc: "a 10% drop stays inside the 25% gates",
				base: probe("batched", 100000), cur: probe("batched", 90000)},
			{desc: "a 30% drop warns and fails",
				base: probe("batched", 100000), cur: probe("batched", 70000),
				warns: []string{exp.RegressBatched}, fatal: 1},
			{desc: "a vanished probe warns but is not fatal",
				base: probe("batched", 100000), warns: []string{exp.RegressMissing}},
			{desc: "a batch-width change is a mismatch, not a regression",
				base:  probe("batched", 100000),
				cur:   with(probe("batched", 50000), func(bp *exp.BenchProbe) { bp.Batch = 16 }),
				warns: []string{exp.RegressMismatch}},
		}},
		// The variance-aware path: the tolerance follows the baseline's
		// recorded spread plus the absolute 16-alloc slack.
		{"ci-scaled", []probeCase{
			{desc: "a rise inside 2 CI half-widths passes",
				base: with(probe("exchange", 0), withDist), cur: probe("exchange", 1000+1.5*hw), ciFactor: 2},
			{desc: "a rise beyond 2 CI half-widths plus the slack fails",
				base: with(probe("exchange", 0), withDist), cur: probe("exchange", 1000+2.5*hw+17), ciFactor: 2,
				warns: []string{exp.RegressAllocs}, fatal: 1},
		}},
		{"retired", []probeCase{
			{desc: "a baseline probe outside the table is a missing finding",
				base:  with(probe("exchange", 1000), func(bp *exp.BenchProbe) { bp.Name = "retired" }),
				warns: []string{exp.RegressMissing}, contains: "retired probe"},
		}},
	}
	report := func(bp *exp.BenchProbe) *exp.Report {
		r := &exp.Report{Schema: exp.SchemaVersion, Backend: "lockstep"}
		if bp != nil {
			r.Probes = map[string]*exp.BenchProbe{bp.Name: bp}
		}
		return r
	}
	for _, g := range groups {
		t.Run(g.name, func(t *testing.T) {
			for _, tc := range g.cases {
				base, cur := report(tc.base), report(tc.cur)
				warns := exp.Compare(base, cur, exp.Gate{})
				var kinds []string
				for _, w := range warns {
					kinds = append(kinds, w.Kind)
				}
				if !slices.Equal(kinds, tc.warns) {
					t.Errorf("%s: Compare kinds %v, want %v: %v", tc.desc, kinds, tc.warns, warns)
				} else if tc.contains != "" && !strings.Contains(warns[0].String(), tc.contains) {
					t.Errorf("%s: finding %q does not mention %q", tc.desc, warns[0], tc.contains)
				}
				ci := tc.ciFactor
				if ci == 0 {
					ci = exp.FailCIFactor
				}
				if fatal := exp.FatalRegressions(base, cur, ci); len(fatal) != tc.fatal {
					t.Errorf("%s: %d fatal findings, want %d: %v", tc.desc, len(fatal), tc.fatal, fatal)
				}
			}
		})
	}
}

// TestBaselineCarriesProbeTable guards the committed baseline against
// drifting from the probe table: every row must be present under its
// name with the shape Compare matches on, or CI's gate would compare
// nothing for it.
func TestBaselineCarriesProbeTable(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var base exp.Report
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	if len(base.Probes) != len(exp.Probes()) {
		t.Errorf("baseline has %d probes, table has %d", len(base.Probes), len(exp.Probes()))
	}
	for _, p := range exp.Probes() {
		bp := base.Probes[p.Name]
		switch {
		case bp == nil:
			t.Errorf("baseline lacks the %s probe", p.Name)
		case bp.Name != p.Name || bp.Backend != base.Backend || bp.N != p.N ||
			bp.WordsPerPair != p.WordsPerPair || bp.Rounds != 256 || bp.Batch != p.Batch:
			t.Errorf("baseline %s probe has shape %+v, table row %+v", p.Name, bp, p)
		}
	}
}
