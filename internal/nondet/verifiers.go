package nondet

import (
	"repro/internal/clique"
	"repro/internal/comm"
	"repro/internal/graph"
)

// This file implements constant-round verifiers for the natural
// NCLIQUE(1) problems Section 6.1 of the paper names: k-colouring and
// Hamiltonian path (both NP-complete centrally). Each comes with a
// centralized Prover that constructs an accepting certificate for
// yes-instances, used by tests and experiments. Every verifier runs
// O(1) rounds with one word per pair — witnessing membership in
// NCLIQUE(1).

// KColoringVerifier accepts iff the labelling is a proper k-colouring:
// every node broadcasts its colour (one round) and checks its own colour
// is in range and differs from all G-neighbours' colours.
func KColoringVerifier(k int) Algorithm {
	return func(nd clique.Endpoint, row graph.Bitset, label []uint64) bool {
		var mine uint64 = ^uint64(0)
		if len(label) == 1 {
			mine = label[0]
		}
		colors, delivered := comm.BroadcastWordOK(nd, mine%uint64(k))
		if len(label) != 1 || mine >= uint64(k) {
			return false
		}
		ok := true
		row.Each(func(u int) {
			if !delivered[u] || colors[u] == mine {
				ok = false
			}
		})
		return ok
	}
}

// KColoringProver returns an accepting labelling for a k-colourable
// graph, or nil.
func KColoringProver(g *graph.Graph, k int) Labelling {
	colors := graph.FindColoring(g, k)
	if colors == nil {
		return nil
	}
	z := make(Labelling, g.N)
	for v, c := range colors {
		z[v] = []uint64{uint64(c)}
	}
	return z
}

// HamPathVerifier accepts iff the labels place the nodes on a
// Hamiltonian path: node v's label is its position; every node
// broadcasts its position (one round), checks that the positions are a
// permutation of 0..n-1, and checks the edge to its successor using its
// own adjacency row.
func HamPathVerifier() Algorithm {
	return func(nd clique.Endpoint, row graph.Bitset, label []uint64) bool {
		n := nd.N()
		var mine uint64 = ^uint64(0)
		if len(label) == 1 {
			mine = label[0]
		}
		positions, delivered := comm.BroadcastWordOK(nd, mine%uint64(n))
		if len(label) != 1 || mine >= uint64(n) {
			return false
		}
		pos := make([]int, n) // node -> position
		pos[nd.ID()] = int(mine)
		seen := make([]bool, n)
		seen[mine] = true
		for u := 0; u < n; u++ {
			if u == nd.ID() {
				continue
			}
			if !delivered[u] || positions[u] >= uint64(n) || seen[positions[u]] {
				return false
			}
			seen[positions[u]] = true
			pos[u] = int(positions[u])
		}
		// Check my edge to my successor (the node at position mine+1).
		if int(mine) == n-1 {
			return true // last node has no successor
		}
		for u := 0; u < n; u++ {
			if u != nd.ID() && pos[u] == int(mine)+1 {
				return row.Has(u)
			}
		}
		return false
	}
}

// HamPathProver returns an accepting labelling for a graph with a
// Hamiltonian path, or nil. Exponential-time local search, as the model
// allows.
func HamPathProver(g *graph.Graph) Labelling {
	n := g.N
	if n == 0 {
		return nil
	}
	order := make([]int, 0, n)
	used := make([]bool, n)
	var rec func() bool
	rec = func() bool {
		if len(order) == n {
			return true
		}
		for v := 0; v < n; v++ {
			if used[v] {
				continue
			}
			if len(order) > 0 && !g.HasEdge(order[len(order)-1], v) {
				continue
			}
			used[v] = true
			order = append(order, v)
			if rec() {
				return true
			}
			order = order[:len(order)-1]
			used[v] = false
		}
		return false
	}
	if !rec() {
		return nil
	}
	z := make(Labelling, n)
	for i, v := range order {
		z[v] = []uint64{uint64(i)}
	}
	return z
}
