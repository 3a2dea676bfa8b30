package gather

import (
	"repro/internal/clique"
	"repro/internal/comm"
	"repro/internal/graph"
)

// Full reconstructs the whole input graph at this node. row is the
// node's adjacency bitset.
func Full(nd clique.Endpoint, row graph.Bitset) *graph.Graph {
	return graphOf(nd.N(), announce(nd, row))
}

// MaxIndependentSetSize computes the independence number at every node;
// all nodes return the same value because they solve the same local
// instance deterministically, which a lockstep run solves once.
func MaxIndependentSetSize(nd clique.Endpoint, row graph.Bitset) int {
	return solve(nd, row, "gather.MaxIndependentSetSize", 0, func(g *graph.Graph, _ int) int {
		return graph.MaxIndependentSetSize(g)
	})
}

// KColorable decides k-colourability at every node.
func KColorable(nd clique.Endpoint, row graph.Bitset, k int) bool {
	return solve(nd, row, "gather.KColorable", k, func(g *graph.Graph, k int) int {
		return int(clique.BoolWord(graph.IsKColorable(g, k)))
	}) != 0
}

// announce broadcasts this node's neighbours, never itself, with
// comm.BroadcastBits and returns every node's words end to end.
func announce(nd clique.Endpoint, row graph.Bitset) []uint64 {
	bits := make([]bool, nd.N())
	for u := range bits {
		bits[u] = u != nd.ID() && row.Has(u)
	}
	return comm.BroadcastBits(nd, bits)
}

// graphOf decodes the graph from the n announced rows laid end to end,
// each of len(words)/n words of comm.BroadcastBits' packing.
func graphOf(n int, words []uint64) *graph.Graph {
	wb, w := clique.WordBits(n), len(words)/n
	g := graph.New(n)
	for v := 0; v < n; v++ {
		for u := 0; u < n; u++ {
			if words[v*w+u/wb]&(1<<(u%wb)) != 0 && u != v {
				g.AddEdge(v, u)
			}
		}
	}
	return g
}

// solve gathers the graph as Full does and returns f(graph, k),
// computed once per lockstep run from the broadcast words, which are
// the same at every node (clique.Replicated).
func solve(nd clique.Endpoint, row graph.Bitset, site string, k int, f func(*graph.Graph, int) int) int {
	n := nd.N()
	key := append(announce(nd, row), uint64(k))
	return *clique.Replicated(nd, site, nil, key, func(_ *int, key []uint64) *int {
		out := f(graphOf(n, key[:len(key)-1]), int(key[len(key)-1]))
		return &out
	})
}
