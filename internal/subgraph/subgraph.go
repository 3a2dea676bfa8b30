package subgraph

import (
	"math/bits"

	"repro/internal/bitvec"
	"repro/internal/clique"
	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/partition"
)

// Scope selects which edges a labelled node must learn.
type Scope int

const (
	// ScopeWithin gathers edges with both endpoints in S_v (subgraph
	// detection, Theorem 10's target problems).
	ScopeWithin Scope = iota
	// ScopeIncident gathers edges with at least one endpoint in S_v
	// (the paper's Theorem 9 dominating-set algorithm).
	ScopeIncident
)

// GatherEdges routes every edge of the input graph to every labelled
// node whose scope covers it, and returns the local view: a graph on the
// full vertex set containing exactly the edges this node learned (plus
// its own incident edges, which it knew for free). row is this node's
// adjacency bitset.
//
// Ownership of each edge follows the paper's private-bit convention
// (graph.PrivateAssignment), so every edge enters the routing instance
// exactly once. Edges travel bit-packed: all vertices of one part share
// their coverage decision, so a node ships its owned adjacency toward a
// labelled node as per-part 64-edge mask words ([key, mask] records)
// instead of one record per edge — up to 64 edges per routed payload.
func GatherEdges(nd clique.Endpoint, row graph.Bitset, s partition.Scheme, scope Scope) *graph.Graph {
	n := nd.N()
	me := nd.ID()
	pa := graph.PrivateAssignment{N: n}

	// The owned adjacency mask: bits u where {me, u} is an edge whose
	// private bit this node holds.
	owned := bitvec.GetRow(n)
	pa.OwnedPairs(me, func(u int) {
		if row.Has(u) {
			owned.Set(u)
		}
	})

	to := recipients(s, me, scope)

	// slots is the per-part mask-word count; record key = t*slots + slot.
	// visit walks the records in order: a counting pass sizes recs
	// exactly and a second pass builds them in place.
	slots := (s.Size + bitvec.WordBits - 1) / bitvec.WordBits
	visit := func(emit func(w int, key, mask uint64)) {
		for t := 0; t < s.P; t++ {
			lo, hi := s.PartBounds(t)
			for slot := 0; slot*bitvec.WordBits < hi-lo; slot++ {
				base := lo + slot*bitvec.WordBits
				mask := owned.Word64(base, min(bitvec.WordBits, hi-base))
				if mask == 0 {
					continue
				}
				key := uint64(t*slots + slot)
				for _, w := range to[t] {
					emit(int(w), key, mask)
				}
			}
		}
	}
	count := 0
	visit(func(int, uint64, uint64) { count++ })
	recs := make([]uint64, 0, 3*count)
	visit(func(w int, key, mask uint64) { recs = append(recs, uint64(w), key, mask) })
	bitvec.PutRow(owned)
	in := comm.Route(nd, recs, 2, 0x5e1)

	local := graph.New(n)
	row.Each(func(u int) { local.AddEdge(me, u) })
	for off := 0; off < len(in); off += 3 {
		src, key := int(in[off]), int(in[off+1])
		t, slot := key/slots, key%slots
		lo, _ := s.PartBounds(t)
		base := lo + slot*bitvec.WordBits
		for m := in[off+2]; m != 0; m &= m - 1 {
			local.AddEdge(src, base+bits.TrailingZeros64(m))
		}
	}
	return local
}

// recipients lists, for each part t and ascending, the labelled nodes w
// that must learn node me's owned edges into part t — the per-edge
// rule of the paper lifted to whole parts, since every u in P_t has the
// same InUnion(w, u): with ScopeWithin, S_w holds both me and part t;
// with ScopeIncident, either. Empty parts have none.
func recipients(s partition.Scheme, me int, scope Scope) [][]int32 {
	mine := s.PartOf(me)
	nonEmpty := make([]bool, s.P)
	for t := range nonEmpty {
		lo, hi := s.PartBounds(t)
		nonEmpty[t] = lo < hi
	}
	to := make([][]int32, s.P)
	named := make([]int, s.P) // named[t] = w+1 once w's label names part t
	var parts []int
	for w := range s.NumLabels() {
		parts = parts[:0]
		hasMine := false
		for i, v := 0, w; i < s.K; i, v = i+1, v/s.P {
			if t := v % s.P; named[t] != w+1 {
				named[t] = w + 1
				parts = append(parts, t)
				hasMine = hasMine || t == mine
			}
		}
		switch {
		case scope == ScopeIncident && hasMine:
			for t := range s.P {
				if nonEmpty[t] {
					to[t] = append(to[t], int32(w))
				}
			}
		case scope == ScopeIncident || hasMine:
			for _, t := range parts {
				if nonEmpty[t] {
					to[t] = append(to[t], int32(w))
				}
			}
		}
	}
	return to
}

// orReduce combines one bit per node: one broadcast round; every node
// returns the global OR, so all nodes output the same decision, as the
// model requires.
func orReduce(nd clique.Endpoint, local bool) bool {
	return comm.OrBool(nd, local)
}

// tuples enumerates all ways to choose one vertex from each listed part
// (parts may repeat), requiring strictly increasing vertex ids inside
// repeated parts to avoid reusing a vertex; f returns true to stop.
func tuples(s partition.Scheme, lbl []int, f func(sel []int) bool) bool {
	k := len(lbl)
	sel := make([]int, k)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == k {
			return f(sel)
		}
		lo, hi := s.PartBounds(lbl[i])
		for v := lo; v < hi; v++ {
			dup := false
			for j := 0; j < i; j++ {
				if sel[j] == v {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			sel[i] = v
			if rec(i + 1) {
				return true
			}
		}
		return false
	}
	return rec(0)
}

// Detect runs the generic detection algorithm: every labelled node
// gathers the edges within its union and searches for a k-tuple
// (one vertex per labelled part) accepted by check, which receives the
// candidate vertices and the local view of the graph. The global OR of
// the local findings is returned at every node.
func Detect(nd clique.Endpoint, row graph.Bitset, k int, check func(sel []int, local *graph.Graph) bool) bool {
	s := partition.New(nd.N(), k)
	local := GatherEdges(nd, row, s, ScopeWithin)
	found := false
	if lbl := s.Label(nd.ID()); lbl != nil {
		found = tuples(s, lbl, func(sel []int) bool { return check(sel, local) })
	}
	return orReduce(nd, found)
}

// DetectIndependentSet decides whether the input graph has an
// independent set of size k, in O(k^2 n^{1-2/k}) rounds (Figure 1's k-IS
// entry).
func DetectIndependentSet(nd clique.Endpoint, row graph.Bitset, k int) bool {
	return Detect(nd, row, k, func(sel []int, local *graph.Graph) bool {
		return graph.IsIndependentSet(local, sel)
	})
}

// DetectClique decides whether the input graph has a clique of size k.
func DetectClique(nd clique.Endpoint, row graph.Bitset, k int) bool {
	return Detect(nd, row, k, func(sel []int, local *graph.Graph) bool {
		return graph.IsClique(local, sel)
	})
}

// DetectTriangle decides triangle-freeness, the k = 3 clique case at
// O(n^{1/3}) rounds.
func DetectTriangle(nd clique.Endpoint, row graph.Bitset) bool {
	return DetectClique(nd, row, 3)
}

// DetectCycle decides whether the input graph contains a simple cycle of
// length exactly k.
func DetectCycle(nd clique.Endpoint, row graph.Bitset, k int) bool {
	if k < 3 {
		return orReduce(nd, false)
	}
	return Detect(nd, row, k, func(sel []int, local *graph.Graph) bool {
		return hasCycleOrder(local, sel)
	})
}

// hasCycleOrder reports whether some cyclic ordering of sel forms a
// cycle in g. The first element is fixed to quotient out rotations.
func hasCycleOrder(g *graph.Graph, sel []int) bool {
	k := len(sel)
	perm := make([]int, 0, k)
	used := make([]bool, k)
	perm = append(perm, sel[0])
	used[0] = true
	var rec func() bool
	rec = func() bool {
		if len(perm) == k {
			return g.HasEdge(perm[k-1], perm[0])
		}
		last := perm[len(perm)-1]
		for i := 1; i < k; i++ {
			if used[i] || !g.HasEdge(last, sel[i]) {
				continue
			}
			used[i] = true
			perm = append(perm, sel[i])
			if rec() {
				return true
			}
			perm = perm[:len(perm)-1]
			used[i] = false
		}
		return false
	}
	return rec()
}

// DetectPattern decides whether the input graph contains the given
// k-vertex pattern as a (not necessarily induced) subgraph. pattern is
// the adjacency matrix of the pattern graph.
func DetectPattern(nd clique.Endpoint, row graph.Bitset, pattern *graph.Graph) bool {
	k := pattern.N
	return Detect(nd, row, k, func(sel []int, local *graph.Graph) bool {
		ok := true
		pattern.Edges(func(a, b int) {
			if !local.HasEdge(sel[a], sel[b]) {
				ok = false
			}
		})
		return ok
	})
}

// DetectPath decides whether the input graph contains a simple path on
// exactly k vertices, via the generic pattern detector. Section 7.3 of
// the paper cites exp(k)-round algorithms for k-path ([20, 35]); the
// partition scheme realises O(k^2 n^{1-2/k}) rounds, which is the
// better bound for k constant.
func DetectPath(nd clique.Endpoint, row graph.Bitset, k int) bool {
	if k == 1 {
		return orReduce(nd, nd.N() > 0)
	}
	pattern := graph.New(k)
	for v := 0; v+1 < k; v++ {
		pattern.AddEdge(v, v+1)
	}
	return DetectPattern(nd, row, pattern)
}
