package exp_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/clique"
	"repro/internal/exp"
	"repro/internal/stats"
	"repro/internal/workload"
)

// TestRegistryComplete pins the registered experiment set: the E1-E13
// map of EXPERIMENTS.md plus the extension and ablation entries, in
// report order.
func TestRegistryComplete(t *testing.T) {
	want := []string{"fig1", "fig2", "thm2", "thm4", "thm8", "lemma1",
		"thm3", "thm6", "thm7", "thm9", "thm11", "fpt", "mst",
		"mstsketch", "mstsparse", "sub", "ablation"}
	if got := exp.IDs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("IDs() = %v, want %v", got, want)
	}
	for _, id := range want {
		e, ok := exp.Get(id)
		if !ok {
			t.Fatalf("Get(%q) missing", id)
		}
		if e.Artefact == "" || e.Title == "" {
			t.Errorf("%s: empty artefact or title: %+v", id, e)
		}
		if !strings.Contains(exp.Help(), id) {
			t.Errorf("Help() does not mention %q", id)
		}
	}
}

func TestResolve(t *testing.T) {
	if ids, err := exp.Resolve("all"); err != nil || len(ids) != len(exp.IDs()) {
		t.Fatalf("Resolve(all) = %v, %v", ids, err)
	}
	ids, err := exp.Resolve("thm9, fig1,thm9")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"thm9", "fig1"}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("Resolve dedup/order = %v, want %v", ids, want)
	}
	if _, err := exp.Resolve("nope"); err == nil || !strings.Contains(err.Error(), "fig1") {
		t.Fatalf("Resolve(nope) err = %v, want error listing valid ids", err)
	}
}

// TestAllExperimentsQuick runs every registered experiment once at
// quick sizes and sanity-checks the structured Result.
func TestAllExperimentsQuick(t *testing.T) {
	for _, e := range exp.All() {
		t.Run(e.ID, func(t *testing.T) {
			res, tim, err := exp.RunOne(e.ID, exp.Options{Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.ID != e.ID || res.Artefact != e.Artefact || res.Title != e.Title {
				t.Errorf("result header %q/%q/%q does not match registration", res.ID, res.Artefact, res.Title)
			}
			if len(res.Tables)+len(res.Notes) == 0 {
				t.Error("experiment produced neither tables nor notes")
			}
			for _, tab := range res.Tables {
				for i, row := range tab.Rows {
					if len(row) != len(tab.Columns) {
						t.Errorf("table %q row %d: %d cells for %d columns", tab.Name, i, len(row), len(tab.Columns))
					}
				}
			}
			if res.Sim.Runs > 0 && res.Sim.Rounds == 0 {
				t.Errorf("simulated %d runs but counted 0 rounds", res.Sim.Runs)
			}
			if res.Sim.Runs > 0 && tim.SimWall <= 0 {
				t.Errorf("simulated %d runs but measured no wall time", res.Sim.Runs)
			}
			if tim.Rounds != res.Sim.Rounds {
				t.Errorf("timing rounds %d != sim rounds %d", tim.Rounds, res.Sim.Rounds)
			}
		})
	}
}

// TestBackendInvariance pins that the structured results — not just
// the old stats — are identical across execution backends.
func TestBackendInvariance(t *testing.T) {
	ids := []string{"fig2", "thm7", "ablation"}
	var ref []*exp.Result
	for i, backend := range clique.Backends() {
		results, _, err := exp.Run(ids, exp.Options{Backend: backend, Quick: true})
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if i == 0 {
			ref = results
			continue
		}
		if !reflect.DeepEqual(results, ref) {
			t.Errorf("%s results diverge from %s", backend, clique.Backends()[0])
		}
	}
}

// TestParallelMatchesSequential is the acceptance criterion of the
// parallel runner: identical bytes whatever the worker count.
func TestParallelMatchesSequential(t *testing.T) {
	ids := exp.IDs()
	seqRes, seqTim, err := exp.Run(ids, exp.Options{Quick: true, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	parRes, parTim, err := exp.Run(ids, exp.Options{Quick: true, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seqRes, parRes) {
		t.Error("parallel results differ structurally from sequential results")
	}
	seq := mustJSON(t, exp.NewReport("lockstep", exp.Options{Quick: true}, seqRes, seqTim, false))
	par := mustJSON(t, exp.NewReport("lockstep", exp.Options{Quick: true}, parRes, parTim, false))
	if !bytes.Equal(seq, par) {
		t.Error("parallel JSON differs from sequential JSON")
	}
	if seqTim.Rounds != parTim.Rounds {
		t.Errorf("sequential rounds %d != parallel rounds %d", seqTim.Rounds, parTim.Rounds)
	}
}

// TestJSONRoundTrip demands a stable schema: marshal, unmarshal,
// marshal again, byte-identical — so archived BENCH_*.json files can
// be re-read and re-compared by any future version of the tools.
func TestJSONRoundTrip(t *testing.T) {
	results, tim, err := exp.Run(exp.IDs(), exp.Options{Quick: true, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	report := exp.NewReport("lockstep", exp.Options{Quick: true, Parallel: 4}, results, tim, true)
	first := mustJSON(t, report)
	var decoded exp.Report
	if err := json.Unmarshal(first, &decoded); err != nil {
		t.Fatal(err)
	}
	second := mustJSON(t, &decoded)
	if !bytes.Equal(first, second) {
		t.Errorf("JSON round-trip unstable:\nfirst:  %s\nsecond: %s", first, second)
	}
	if decoded.Schema != exp.SchemaVersion {
		t.Errorf("schema = %q, want %q", decoded.Schema, exp.SchemaVersion)
	}
	if decoded.Throughput == nil || decoded.Throughput.SimRounds != tim.Rounds {
		t.Errorf("throughput block lost in round trip: %+v", decoded.Throughput)
	}
}

func TestCompare(t *testing.T) {
	mk := func(rps float64, workers int, rounds int64) *exp.Report {
		return &exp.Report{
			Schema:  exp.SchemaVersion,
			Backend: "lockstep",
			Experiments: []*exp.Result{
				{ID: "fig1", Sim: exp.SimCost{Runs: 1, Rounds: rounds}},
			},
			Throughput: &exp.Throughput{SimRounds: rounds, WallNS: 1e9, RoundsPerSec: rps, Workers: workers},
		}
	}
	if warns := exp.Compare(mk(100, 1, 50), mk(90, 1, 50), exp.Gate{Frac: 0.25}); len(warns) != 0 {
		t.Errorf("10%% slowdown should pass a 25%% threshold: %v", warns)
	}
	warns := exp.Compare(mk(100, 1, 50), mk(50, 1, 50), exp.Gate{Frac: 0.25})
	if len(warns) != 1 || !strings.Contains(warns[0].String(), "throughput") {
		t.Errorf("50%% slowdown should warn: %v", warns)
	}
	warns = exp.Compare(mk(100, 1, 50), mk(100, 1, 60), exp.Gate{Frac: 0.25})
	if len(warns) != 1 || !strings.Contains(warns[0].String(), "model cost") {
		t.Errorf("model cost change should warn: %v", warns)
	}
	warns = exp.Compare(mk(100, 1, 50), mk(100, 4, 50), exp.Gate{Frac: 0.25})
	if len(warns) != 1 || !strings.Contains(warns[0].String(), "worker-count mismatch") {
		t.Errorf("worker mismatch should warn instead of comparing: %v", warns)
	}
	quick := mk(100, 1, 50)
	quick.Quick = true
	if warns := exp.Compare(quick, mk(100, 1, 50), exp.Gate{Frac: 0.25}); len(warns) != 1 {
		t.Errorf("quick-mode mismatch should warn: %v", warns)
	}
	dropped := mk(100, 1, 50)
	dropped.Experiments = nil
	warns = exp.Compare(mk(100, 1, 50), dropped, exp.Gate{Frac: 0.25})
	if len(warns) != 1 || !strings.Contains(warns[0].String(), "missing from the current report") {
		t.Errorf("dropped experiment should warn: %v", warns)
	}
	zeroBase := mk(100, 1, 0)
	warns = exp.Compare(zeroBase, mk(100, 1, 12), exp.Gate{Frac: 0.25})
	if len(warns) != 1 || strings.Contains(warns[0].String(), "Inf") {
		t.Errorf("zero-baseline cost change must not print Inf: %v", warns)
	}
}

// TestWriteText checks the renderer: aligned columns, the banner, the
// throughput summary line.
func TestWriteText(t *testing.T) {
	report := &exp.Report{
		Schema: exp.SchemaVersion, Backend: "lockstep",
		Experiments: []*exp.Result{{
			ID: "demo", Artefact: "E0 / Demo", Title: "a demo",
			Tables: []exp.Table{{
				Columns: []string{"name", "n", "fit"},
				Rows: [][]exp.Cell{
					{exp.Str("tri"), exp.Int(125), exp.Float(0.3333, "%.3f")},
					{exp.Str("longer-name"), exp.Int(7), exp.Float(1, "%.3f")},
				},
			}},
			Notes: []string{"a closing note"},
		}},
		Throughput: &exp.Throughput{SimRounds: 10, WallNS: 1e9, RoundsPerSec: 10},
	}
	var sb strings.Builder
	report.WriteText(&sb)
	out := sb.String()
	for _, want := range []string{
		"backend: lockstep",
		"===== E0 / Demo: a demo =====",
		"longer-name   7 1.000",
		"tri         125 0.333",
		"a closing note",
		"simulator: 10 rounds in 1s on the lockstep backend (10 rounds/sec)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
}

// TestCells pins the typed-cell constructors, including the non-finite
// float degradation that keeps Results JSON-marshalable.
func TestCells(t *testing.T) {
	if c := exp.Int(42); c.Kind != exp.KindInt || c.Text != "42" || c.Int != 42 {
		t.Errorf("Int cell = %+v", c)
	}
	if c := exp.Float(0.5, "%.2f"); c.Kind != exp.KindFloat || c.Text != "0.50" {
		t.Errorf("Float cell = %+v", c)
	}
	bad := exp.Float(math.NaN(), "%.3f")
	if bad.Kind != exp.KindString {
		t.Errorf("NaN float should degrade to a string cell: %+v", bad)
	}
	if _, err := json.Marshal(bad); err != nil {
		t.Errorf("degraded NaN cell must marshal: %v", err)
	}
	if c := exp.Bool(true); c.Kind != exp.KindBool || c.Text != "true" {
		t.Errorf("Bool cell = %+v", c)
	}
	if c := exp.Strf("x=%d", 3); c.Kind != exp.KindString || c.Text != "x=3" {
		t.Errorf("Strf cell = %+v", c)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCompareVarianceAware pins the CI-based gate: with a repeat
// distribution on the baseline, the warning threshold is
// CIFactor × half-width below the mean instead of a fixed fraction.
func TestCompareVarianceAware(t *testing.T) {
	mk := func(rps float64, dist *stats.Summary) *exp.Report {
		return &exp.Report{
			Schema:  exp.SchemaVersion,
			Backend: "lockstep",
			Throughput: &exp.Throughput{
				SimRounds: 50, WallNS: 1e9, RoundsPerSec: rps, Workers: 1, Dist: dist,
			},
		}
	}
	// Baseline: repeats {98, 100, 102} → mean 100, half-width
	// t(0.975, 2)·2/√3 = 4.30265·1.1547 ≈ 4.968.
	d := stats.Summarize([]float64{98, 100, 102}, 0)
	base := mk(d.Mean, &d)
	hw := d.HalfWidth()

	// Inside 2 half-widths of the mean: no warning, even though a fixed
	// 5% threshold would have fired.
	ok := mk(100-1.5*hw, nil)
	if warns := exp.Compare(base, ok, exp.Gate{CIFactor: 2, Frac: 0.05}); len(warns) != 0 {
		t.Errorf("drop inside 2 CI half-widths warned: %v", warns)
	}
	// Outside 2 half-widths: warning, even though the fixed fallback
	// (25%) would have let it pass.
	bad := mk(100-3*hw, nil)
	warns := exp.Compare(base, bad, exp.Gate{CIFactor: 2, Frac: 0.25})
	if len(warns) != 1 || warns[0].Kind != exp.RegressThroughput {
		t.Errorf("drop beyond 2 CI half-widths should warn: %v", warns)
	}
	// A wider CIFactor tolerates the same drop.
	if warns := exp.Compare(base, bad, exp.Gate{CIFactor: 10, Frac: 0.25}); len(warns) != 0 {
		t.Errorf("drop inside 10 CI half-widths warned: %v", warns)
	}
	// Zero-variance baseline: the minRelSlack floor (2%) keeps noise
	// from alerting, but a real drop still fires.
	flat := stats.Summarize([]float64{100, 100, 100}, 0)
	zbase := mk(100, &flat)
	if warns := exp.Compare(zbase, mk(99, nil), exp.Gate{}); len(warns) != 0 {
		t.Errorf("1%% drop under a zero-variance baseline warned: %v", warns)
	}
	if warns := exp.Compare(zbase, mk(90, nil), exp.Gate{}); len(warns) != 1 {
		t.Errorf("10%% drop under a zero-variance baseline should warn: %v", warns)
	}
}

// TestRunWorkloadsFailsOnCheck runs three specs through RunWorkloads,
// batched and traced, where only the second's Check fails: the
// experiment must fail naming that run, and its SimCost must stop at
// that run as a serial loop's would.
func TestRunWorkloadsFailsOnCheck(t *testing.T) {
	alg := workload.Algorithm{Name: "checked", WPP: 1, New: func(n int, seed uint64) workload.Instance {
		return workload.Instance{
			Program: func(nd *clique.Node) { nd.Tick() },
			Check: func() error {
				if seed == 2 {
					return errors.New("forged witness")
				}
				return nil
			},
		}
	}}
	var runs int
	e := exp.Experiment{ID: "check-fails", Run: func(c *exp.Ctx) {
		c.RunWorkloads(4, 1, workload.Spec{Alg: alg, Seed: 1}, workload.Spec{Alg: alg, Seed: 2}, workload.Spec{Alg: alg, Seed: 3})
	}}
	for _, traced := range []bool{false, true} {
		opts := exp.Options{Backend: "lockstep", Trace: traced, Progress: func(p exp.Progress) { runs = p.SimCost.Runs }}
		_, _, err := exp.RunExperiment(context.Background(), e, opts)
		if err == nil || !strings.Contains(err.Error(), "checked n=4 seed=2: forged witness") {
			t.Errorf("traced=%v: error %v, want the seed-2 Check failure", traced, err)
		}
		if runs != 2 {
			t.Errorf("traced=%v: %d runs accounted, want 2", traced, runs)
		}
	}
}
