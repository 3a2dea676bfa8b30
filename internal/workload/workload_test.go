package workload

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/clique"
	"repro/internal/domset"
	"repro/internal/graph"
	"repro/internal/vcover"
)

func TestAllAndNamesSortedAndAgree(t *testing.T) {
	names := Names()
	var fromAll []string
	for _, a := range All() {
		fromAll = append(fromAll, a.Name)
	}
	if !slices.IsSorted(names) || !slices.Equal(names, fromAll) {
		t.Fatalf("Names %v, All %v", names, fromAll)
	}
}

func TestRegisterPanics(t *testing.T) {
	build := func(n int, seed uint64) Instance { return Instance{} }
	for name, a := range map[string]Algorithm{
		"empty name": {New: build}, "missing New": {Name: "test-no-new"}, "duplicate": {Name: "triangle", New: build},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("Register did not panic")
				}
			}()
			Register(a)
		})
	}
}

// TestAnswersMatchOracle confirms every run of every entry against its
// oracle (Run.Confirm, which also fails a run whose Check RunBatch
// rejected), on both backends. It covers the catalogue and the
// parameterised entries the paper tables run away from their
// registered defaults, at n = 1..4, where partitions have empty or
// ragged parts and k can exceed n, and at n ∈ {8, 16, 64}. Each seed
// sweep runs both as batches of one and as one RunBatch, so an answer
// closure or per-node answer slot that leaks across the runs of a batch
// fails the second. n = 64 leaves out k-col and maxis, whose oracles
// are exponential.
func TestAnswersMatchOracle(t *testing.T) {
	type entry struct {
		label string
		alg   Algorithm
	}
	var entries []entry
	for _, a := range All() {
		entries = append(entries, entry{a.Name, a})
	}
	entries = append(entries, entry{"k-ds(k=2)", KDS(2)}, entry{"k-vc(k=2)", KVC(2)},
		entry{"k-vc(k=4)", KVC(4)}, entry{"mst-sparse(p=0.6)", MSTSparse(0.6)})
	for _, e := range entries {
		a := e.alg
		t.Run(e.label, func(t *testing.T) {
			t.Parallel()
			ns := []int{1, 2, 3, 4, 8, 16, 64}
			if a.Name == "k-col" || a.Name == "maxis" {
				ns = ns[:len(ns)-1]
			}
			specs := []Spec{{a, 1}, {a, 2}, {a, 3}}
			for _, n := range ns {
				for _, backend := range clique.Backends() {
					cfg := clique.Config{N: n, WordsPerPair: a.WPP, Backend: backend}
					confirm := func(mode string, i int, r Run) {
						if err := r.Confirm(); err != nil {
							t.Errorf("%s %s n=%d seed=%d: %v", backend, mode, n, specs[i].Seed, err)
						}
					}
					for i, s := range specs {
						confirm("alone", i, RunBatch(cfg, []Spec{s})[0])
					}
					for i, r := range RunBatch(cfg, specs) {
						confirm("batched", i, r)
					}
				}
			}
		})
	}
}

// TestCheckRejectsForgeries runs the k-DS and k-VC checks over forged
// per-node results on planted instances: the planted witness at every
// node passes, and every forgery must fail.
func TestCheckRejectsForgeries(t *testing.T) {
	const n, k = 16, 3
	gd, ds := graph.PlantedDominatingSet(n, k, 0.1, 1)
	gv, vc := graph.PlantedVertexCover(n, k, 0.4, 1)
	for _, m := range []struct {
		name  string
		forge func(v int, w []int) []int
		ok    bool
	}{
		{"planted", func(_ int, w []int) []int { return w }, true},
		{"node 1 disagrees", func(v int, w []int) []int {
			if v == 1 {
				return append(slices.Clone(w[1:]), w[0])
			}
			return w
		}, false},
		{"witness missing a vertex", func(_ int, w []int) []int { return w[1:] }, false},
		{"witness emptied", func(int, []int) []int { return nil }, false},
		{"k+1 vertices", func(_ int, w []int) []int { return append(slices.Clone(w), k) }, false},
	} {
		errs := map[string]error{
			"k-DS": forgedCheck(t, gd, k, func(v int) domset.Result {
				return domset.Result{Found: true, Witness: m.forge(v, ds)}
			}, dsWitness, graph.IsDominatingSet),
			"k-VC": forgedCheck(t, gv, k, func(v int) vcover.Result {
				return vcover.Result{Found: true, Cover: m.forge(v, vc)}
			}, vcWitness, graph.IsVertexCover),
		}
		for problem, err := range errs {
			if (err == nil) != m.ok {
				t.Errorf("%s, %s: Check returned %v", problem, m.name, err)
			}
		}
	}
}

// forgedCheck runs agreed's program on g with every node returning
// forge(its id) and returns the instance's Check.
func forgedCheck[R any](t *testing.T, g *graph.Graph, k int, forge func(v int) R,
	witness func(R) (bool, []int), valid func(*graph.Graph, []int) bool) error {
	inst := agreed(g, k, func(nd clique.Endpoint, _ graph.Bitset, _ int) R { return forge(nd.ID()) },
		witness, nil, valid)
	if _, err := clique.Run(clique.Config{N: g.N}, inst.Program); err != nil {
		t.Fatal(err)
	}
	return inst.Check()
}

// overflow's every node sends one word more than the budget to its
// successor in round 0, so the run's error must name the lowest-id
// violator on both backends.
var overflow = Algorithm{Name: "overflow", New: func(int, uint64) Instance {
	return Instance{Program: func(nd *clique.Node) {
		nd.SendWords((nd.ID()+1)%nd.N(), make([]uint64, nd.WordsPerPair()+1))
		nd.Tick()
	}}
}}

// silent returns at once, after zero rounds.
var silent = Algorithm{Name: "silent", New: func(int, uint64) Instance {
	return Instance{Program: func(*clique.Node) {}}
}}

// failedCheck's Check rejects seed 2's run; forgedAnswer has no Check
// and answers 1 where its oracle says 2.
var (
	failedCheck = Algorithm{Name: "failed-check", New: func(_ int, seed uint64) Instance {
		return Instance{Program: func(nd *clique.Node) { nd.Tick() }, Check: func() error {
			if seed == 2 {
				return errors.New("forged witness")
			}
			return nil
		}}
	}}
	forgedAnswer = Algorithm{Name: "forged-answer", New: func(int, uint64) Instance {
		return Instance{Program: func(*clique.Node) {}, Answer: func() any { return 1 }, Oracle: func() any { return 2 }}
	}}
)

// TestRunBatchJudges pins the verdict: RunBatch turns a failed Check
// into a typed Err naming the entry, n and seed, keeping the run's
// Result and wall share; a run without a Check is unchecked; Confirm
// passes Err through, returns a typed wrong answer when the oracle
// disagrees, and nil for a run without an oracle.
func TestRunBatchJudges(t *testing.T) {
	for _, backend := range clique.Backends() {
		cfg := clique.Config{N: 4, Backend: backend}
		runs := RunBatch(cfg, []Spec{{failedCheck, 1}, {failedCheck, 2}, {forgedAnswer, 1}, {silent, 1}})
		bad := runs[1]
		if !errors.Is(bad.Err, ErrFailedCheck) || !strings.Contains(bad.Err.Error(), "failed-check n=4 seed=2: failed check: forged witness") ||
			bad.Result == nil || bad.Result.Stats.Rounds != 1 || bad.Wall <= 0 || bad.Confirm() != bad.Err {
			t.Errorf("%s: failed check: err %v, result %v, wall %v", backend, bad.Err, bad.Result, bad.Wall)
		}
		for _, i := range []int{0, 2, 3} {
			if runs[i].Err != nil {
				t.Errorf("%s run %d: err %v, want an unjudged or passing run", backend, i, runs[i].Err)
			}
		}
		if err := runs[2].Confirm(); !errors.Is(err, ErrWrongAnswer) || !strings.Contains(err.Error(), "answer 1 (int) differs from the oracle's 2 (int)") {
			t.Errorf("%s: wrong answer confirmed as %v", backend, err)
		}
		if err := runs[3].Confirm(); err != nil {
			t.Errorf("%s: a run without an oracle confirmed as %v", backend, err)
		}
	}
}

// TestRunBatch pins RunBatch's contract: per-run results equal serial
// runs, a failing run leaves the others alone, the walls are
// non-negative and sum to at most the batch's, a batch without rounds
// splits its wall evenly, and an empty batch is nil.
func TestRunBatch(t *testing.T) {
	tri, _ := Get("triangle")
	bfs, _ := Get("bfs")
	specs := []Spec{{tri, 1}, {overflow, 1}, {tri, 2}, {bfs, 3}}
	for _, backend := range clique.Backends() {
		cfg := clique.Config{N: 16, WordsPerPair: 8, Backend: backend}
		start := time.Now()
		runs := RunBatch(cfg, specs)
		wall := time.Since(start)
		var sum time.Duration
		for i, r := range runs {
			s := specs[i]
			want, wantErr := clique.Run(cfg, s.Alg.New(cfg.N, s.Seed).Program)
			switch {
			case r.Wall < 0:
				t.Errorf("%s run %d: wall %v", backend, i, r.Wall)
			case s.Alg.Name == "overflow":
				if r.Err == nil || wantErr == nil || r.Err.Error() != wantErr.Error() || r.Wall != 0 {
					t.Errorf("%s run %d: err %v wall %v, serial err %v", backend, i, r.Err, r.Wall, wantErr)
				}
			case r.Err != nil || wantErr != nil:
				t.Errorf("%s run %d: err %v, serial err %v", backend, i, r.Err, wantErr)
			case !reflect.DeepEqual(r.Result.Stats, want.Stats):
				t.Errorf("%s run %d: stats %+v, serial %+v", backend, i, r.Result.Stats, want.Stats)
			}
			sum += r.Wall
		}
		if sum > wall {
			t.Errorf("%s: walls sum to %v, batch took %v", backend, sum, wall)
		}

		runs = RunBatch(cfg, []Spec{{silent, 1}, {silent, 2}, {silent, 3}})
		for i, r := range runs {
			if r.Err != nil || r.Result.Stats.Rounds != 0 || r.Wall <= 0 || r.Wall != runs[0].Wall {
				t.Errorf("%s silent run %d: err %v, %d rounds, wall %v (run 0: %v)",
					backend, i, r.Err, r.Result.Stats.Rounds, r.Wall, runs[0].Wall)
			}
		}
	}
	if runs := RunBatch(clique.Config{N: 8}, nil); runs != nil {
		t.Errorf("empty batch: %v", runs)
	}
}
