package gather

import (
	"repro/internal/clique"
	"repro/internal/comm"
	"repro/internal/graph"
)

// Full reconstructs the whole input graph at this node. row is the
// node's adjacency bitset.
func Full(nd clique.Endpoint, row graph.Bitset) *graph.Graph {
	n := nd.N()
	bits := make([]bool, n)
	for u := 0; u < n; u++ {
		bits[u] = u != nd.ID() && row.Has(u)
	}
	table := comm.BroadcastBits(nd, bits)
	g := graph.New(n)
	for v := 0; v < n; v++ {
		for u := 0; u < n; u++ {
			if table[v][u] && u != v {
				g.AddEdge(v, u)
			}
		}
	}
	return g
}

// MaxIndependentSetSize computes the independence number at every node;
// all nodes return the same value because they solve the same local
// instance deterministically.
func MaxIndependentSetSize(nd clique.Endpoint, row graph.Bitset) int {
	return graph.MaxIndependentSetSize(Full(nd, row))
}

// KColorable decides k-colourability at every node.
func KColorable(nd clique.Endpoint, row graph.Bitset, k int) bool {
	return graph.IsKColorable(Full(nd, row), k)
}
