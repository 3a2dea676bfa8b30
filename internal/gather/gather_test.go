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
