package gather

import (
	"testing"

	"repro/internal/clique"
	"repro/internal/graph"
)

func TestFullReconstructsGraph(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		g := graph.Gnp(17, 0.3, seed)
		_, err := clique.Run(clique.Config{N: g.N}, func(nd *clique.Node) {
			full := Full(nd, g.Row(nd.ID()))
			if !full.Equal(g) {
				nd.Fail("reconstructed graph differs")
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestFullRoundCount(t *testing.T) {
	// n bits packed log n per word: ceil(n / WordBits(n)) rounds at one
	// word per pair.
	g := graph.Gnp(32, 0.5, 5)
	res, err := clique.Run(clique.Config{N: g.N}, func(nd *clique.Node) {
		Full(nd, g.Row(nd.ID()))
	})
	if err != nil {
		t.Fatal(err)
	}
	want := (32 + clique.WordBits(32) - 1) / clique.WordBits(32)
	if res.Stats.Rounds != want {
		t.Errorf("Full used %d rounds, want %d", res.Stats.Rounds, want)
	}
}

func TestGlobalSolvers(t *testing.T) {
	g := graph.Cycle(9)
	_, err := clique.Run(clique.Config{N: g.N}, func(nd *clique.Node) {
		if got := MaxIndependentSetSize(nd, g.Row(nd.ID())); got != 4 {
			nd.Fail("alpha(C9) = %d, want 4", got)
		}
		if KColorable(nd, g.Row(nd.ID()), 2) {
			nd.Fail("C9 is not 2-colourable")
		}
		if !KColorable(nd, g.Row(nd.ID()), 3) {
			nd.Fail("C9 is 3-colourable")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSolversCostWhatFullCosts holds the replicated solvers to Full's
// broadcast and to the oracle: on every backend each answers as
// graph's solver does on the whole graph, at exactly the rounds and
// words Full spends.
func TestSolversCostWhatFullCosts(t *testing.T) {
	for seed := uint64(0); seed < 3; seed++ {
		g := graph.Gnp(21, 0.4, seed)
		for _, backend := range clique.Backends() {
			cfg := clique.Config{N: g.N, Backend: backend}
			full, err := clique.Run(cfg, func(nd *clique.Node) { Full(nd, g.Row(nd.ID())) })
			if err != nil {
				t.Fatal(err)
			}
			for name, solve := range map[string]func(*clique.Node) bool{
				"MaxIndependentSetSize": func(nd *clique.Node) bool {
					return MaxIndependentSetSize(nd, g.Row(nd.ID())) == graph.MaxIndependentSetSize(g)
				},
				"KColorable": func(nd *clique.Node) bool {
					return KColorable(nd, g.Row(nd.ID()), 4) == graph.IsKColorable(g, 4)
				},
			} {
				res, err := clique.Run(cfg, func(nd *clique.Node) {
					if !solve(nd) {
						nd.Fail("%s differs from the oracle", name)
					}
				})
				if err != nil {
					t.Fatalf("%s on %s: %v", name, backend, err)
				}
				if res.Stats != full.Stats {
					t.Errorf("%s on %s: stats %+v, Full %+v", name, backend, res.Stats, full.Stats)
				}
			}
		}
	}
}
