package domset

import (
	"repro/internal/clique"
	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/subgraph"
)

// Result is the outcome of the search, identical at every node.
type Result struct {
	// Found reports whether a dominating set of size at most k exists.
	Found bool
	// Witness is a dominating set of size <= k if Found; the witness
	// found by the lowest-id successful node is broadcast so that all
	// nodes agree on it. Nil if not Found.
	Witness []int
}

// Find looks for a dominating set of size k. row is this node's
// adjacency bitset. Rounds: O(n^{1-1/k}) for the gather plus
// 1 + ceil(k / wordsPerPair) bookkeeping rounds to agree on the
// witness.
func Find(nd clique.Endpoint, row graph.Bitset, k int) Result {
	n := nd.N()
	if k < 1 {
		nd.Fail("domset: k = %d", k)
	}
	if k >= n {
		// Everything dominates; trivial witness.
		w := make([]int, 0, k)
		for v := 0; v < n && v < k; v++ {
			w = append(w, v)
		}
		return Result{Found: true, Witness: w}
	}
	s := partition.New(n, k)
	local := subgraph.GatherEdges(nd, row, s, subgraph.ScopeIncident)

	// Local search: any k-subset of S_v that dominates V. The paper's
	// step (3): knowing all edges incident to S_v suffices to verify
	// domination of the full vertex set.
	var witness []int
	if lbl := s.Label(nd.ID()); lbl != nil {
		union := s.Union(nd.ID())
		witness = searchDominating(local, union, k)
	}
	return agreeOnWitness(nd, witness, k)
}

// searchDominating returns the first k-subset of candidates, in
// lexicographic order of candidate positions, that dominates all of g,
// or nil. Each candidate's closed neighbourhood is precomputed as a
// bitset and the search keeps one OR accumulator per depth, so a leaf
// is one word-by-word compare of acc | N[c] against the all-ones set
// (graph.IsDominatingSet's rule) and allocates nothing.
func searchDominating(g *graph.Graph, candidates []int, k int) []int {
	words := len(g.Row(0))
	backing := make([]uint64, (len(candidates)+k)*words)
	carve := func(i int) graph.Bitset { return backing[i*words : (i+1)*words : (i+1)*words] }
	s := dsSearch{
		n:      g.N,
		closed: make([]graph.Bitset, len(candidates)),
		acc:    make([]graph.Bitset, k),
		pick:   make([]int, k),
	}
	for i, c := range candidates {
		s.closed[i] = g.ClosedRowInto(carve(i), c)
	}
	for d := range s.acc {
		s.acc[d] = carve(len(candidates) + d)
	}
	if !s.rec(0, 0) {
		return nil
	}
	out := make([]int, k)
	for d, i := range s.pick {
		out[d] = candidates[i]
	}
	return out
}

// dsSearch is the state of one searchDominating call.
type dsSearch struct {
	n      int
	closed []graph.Bitset // closed[i] = N[candidates[i]]
	acc    []graph.Bitset // acc[d] = union of the first d picks' closed[]
	pick   []int          // candidate positions of the current subset
}

// rec extends the first d picks with positions >= start and reports
// whether some extension dominates; pick then holds the first one.
func (s *dsSearch) rec(d, start int) bool {
	if d == len(s.pick)-1 {
		for i := start; i < len(s.closed); i++ {
			if s.acc[d].UnionIsFull(s.closed[i], s.n) {
				s.pick[d] = i
				return true
			}
		}
		return false
	}
	for i := start; i < len(s.closed); i++ {
		s.pick[d] = i
		s.acc[d+1].SetUnion(s.acc[d], s.closed[i])
		if s.rec(d+1, i+1) {
			return true
		}
	}
	return false
}

// agreeOnWitness publishes the lowest-id node's witness (if any) so that
// all nodes produce identical output: one presence-coded vote round to
// announce success (only successful nodes spend budget), then a
// budget-chunked BroadcastFrom in which the elected node ships its k
// witness vertices.
func agreeOnWitness(nd clique.Endpoint, witness []int, k int) Result {
	n := nd.N()
	me := nd.ID()
	flags := comm.Flags(nd, witness != nil)
	leader := -1
	for v := 0; v < n; v++ {
		if flags[v] {
			leader = v
			break
		}
	}
	if leader < 0 {
		return Result{}
	}
	var words []uint64
	if me == leader {
		words = make([]uint64, k)
		for i, v := range witness {
			words[i] = uint64(v)
		}
	}
	got := comm.BroadcastFrom(nd, leader, words, k)
	out := make([]int, k)
	for i, w := range got {
		out[i] = int(w)
	}
	return Result{Found: true, Witness: out}
}

// Decide is the decision version: does a dominating set of size at most
// k exist?
func Decide(nd clique.Endpoint, row graph.Bitset, k int) bool {
	return Find(nd, row, k).Found
}
