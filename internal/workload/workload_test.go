package workload

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/clique"
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

// TestAnswersMatchOracle checks node 0's answer against the oracle for
// every entry that has one, on both backends. Each seed sweep runs both
// as batches of one and as one RunBatch, so an answer closure that
// leaks across the runs of a batch fails the second. n = 64 leaves out
// k-col and maxis, whose oracles are exponential.
func TestAnswersMatchOracle(t *testing.T) {
	for _, a := range All() {
		if a.New(8, 1).Oracle == nil {
			continue
		}
		t.Run(a.Name, func(t *testing.T) {
			t.Parallel()
			ns := []int{8, 16, 64}
			if a.Name == "k-col" || a.Name == "maxis" {
				ns = ns[:2]
			}
			specs := []Spec{{a, 1}, {a, 2}, {a, 3}}
			for _, n := range ns {
				want := make([]any, len(specs))
				for i, s := range specs {
					want[i] = a.New(n, s.Seed).Oracle()
				}
				for _, backend := range clique.Backends() {
					cfg := clique.Config{N: n, WordsPerPair: a.WPP, Backend: backend}
					check := func(mode string, i int, r Run) {
						if r.Err != nil {
							t.Fatalf("%s %s n=%d seed=%d: %v", backend, mode, n, specs[i].Seed, r.Err)
						}
						if got := r.Answer(); got != want[i] {
							t.Errorf("%s %s n=%d seed=%d: answer %v (%T), oracle %v (%T)",
								backend, mode, n, specs[i].Seed, got, got, want[i], want[i])
						}
					}
					for i, s := range specs {
						check("alone", i, RunBatch(cfg, []Spec{s})[0])
					}
					for i, r := range RunBatch(cfg, specs) {
						check("batched", i, r)
					}
				}
			}
		})
	}
}

// overflow's node 0 sends one word more than the budget in round 0.
var overflow = Algorithm{Name: "overflow", New: func(int, uint64) Instance {
	return Instance{Program: func(nd *clique.Node) {
		if nd.ID() == 0 {
			nd.SendWords(1, make([]uint64, nd.WordsPerPair()+1))
		}
		nd.Tick()
	}}
}}

// silent returns at once, after zero rounds.
var silent = Algorithm{Name: "silent", New: func(int, uint64) Instance {
	return Instance{Program: func(*clique.Node) {}}
}}

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
