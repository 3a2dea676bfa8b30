package exp_test

import (
	"testing"

	"repro/internal/clique"
	"repro/internal/exp"
	"repro/internal/trace"
)

// TestTracedRunsCoverEveryRound is the trace plane's accounting
// invariant, on both backends: every simulated run of a traced
// experiment yields a summary whose phase timeline — named phases plus
// "(untraced)" gap fillers — sums exactly to the run's round count,
// the raw trace records one Round per simulated round, and the summed
// trace rounds equal the experiment's SimCost.Rounds. A trace that
// dropped or double-counted rounds would be worse than none.
func TestTracedRunsCoverEveryRound(t *testing.T) {
	type runShape struct {
		rounds int
		phases []trace.PhaseSummary
	}
	var ref []runShape
	for i, backend := range clique.Backends() {
		t.Run(backend, func(t *testing.T) {
			var raw []*trace.RunTrace
			opts := exp.Options{Backend: backend, Quick: true, Trace: true,
				TraceSink: func(id string, traces []*trace.RunTrace) { raw = traces }}
			res, _, err := exp.RunOne("fig1", opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Trace == nil || res.Trace.Schema != trace.SchemaVersion {
				t.Fatalf("traced run missing the %s block: %+v", trace.SchemaVersion, res.Trace)
			}
			if res.Sim.Runs == 0 {
				t.Fatal("fig1 made no simulated runs; the test needs a simulating experiment")
			}
			if len(res.Trace.Runs) != res.Sim.Runs || len(raw) != res.Sim.Runs {
				t.Fatalf("trace has %d summaries / %d raw traces for %d simulated runs",
					len(res.Trace.Runs), len(raw), res.Sim.Runs)
			}
			var total int64
			var shapes []runShape
			for i, run := range res.Trace.Runs {
				phaseRounds := 0
				for _, p := range run.Phases {
					phaseRounds += p.Rounds
				}
				if phaseRounds != run.Rounds {
					t.Fatalf("run %d (%s): phase rounds sum to %d, run has %d rounds (phases: %+v)",
						i, run.Label, phaseRounds, run.Rounds, run.Phases)
				}
				if len(raw[i].Rounds) != run.Rounds {
					t.Fatalf("run %d: raw trace has %d rounds, summary says %d", i, len(raw[i].Rounds), run.Rounds)
				}
				total += int64(run.Rounds)
				// Wall-clock fields differ run to run; the model-level
				// shape must not.
				phases := make([]trace.PhaseSummary, len(run.Phases))
				copy(phases, run.Phases)
				for j := range phases {
					phases[j].WallNS = 0
				}
				shapes = append(shapes, runShape{rounds: run.Rounds, phases: phases})
			}
			if total != res.Sim.Rounds {
				t.Fatalf("trace accounts for %d rounds, experiment simulated %d", total, res.Sim.Rounds)
			}
			if i == 0 {
				ref = shapes
				return
			}
			// Both backends execute the same model: identical round
			// counts and phase timelines, whatever the scheduling.
			if len(shapes) != len(ref) {
				t.Fatalf("backend traces differ in run count: %d vs %d", len(shapes), len(ref))
			}
			for r := range shapes {
				if shapes[r].rounds != ref[r].rounds {
					t.Fatalf("run %d: %d rounds on %s, %d on %s",
						r, shapes[r].rounds, backend, ref[r].rounds, clique.Backends()[0])
				}
				if len(shapes[r].phases) != len(ref[r].phases) {
					t.Fatalf("run %d: phase timelines differ across backends:\n%+v\n%+v",
						r, shapes[r].phases, ref[r].phases)
				}
				for p := range shapes[r].phases {
					if shapes[r].phases[p] != ref[r].phases[p] {
						t.Fatalf("run %d phase %d differs across backends: %+v vs %+v",
							r, p, shapes[r].phases[p], ref[r].phases[p])
					}
				}
			}
		})
	}
}

// TestUntracedResultCarriesNoTraceBlock pins the zero-cost-off
// serialisation half: without Options.Trace the Result has no Trace
// field at all — a TraceSink alone collects traces but leaves the
// envelope untouched, so sink users (cliquebench -trace with text
// output) do not perturb byte-level determinism.
func TestUntracedResultCarriesNoTraceBlock(t *testing.T) {
	res, _, err := exp.RunOne("fig1", exp.Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Fatalf("untraced run carries a trace block: %+v", res.Trace)
	}
	sunk := false
	res, _, err = exp.RunOne("fig1", exp.Options{Quick: true,
		TraceSink: func(id string, traces []*trace.RunTrace) { sunk = len(traces) > 0 }})
	if err != nil {
		t.Fatal(err)
	}
	if !sunk {
		t.Fatal("TraceSink alone did not collect traces")
	}
	if res.Trace != nil {
		t.Fatalf("TraceSink-only run attached a trace block to the result: %+v", res.Trace)
	}
}
