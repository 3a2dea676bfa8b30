package mst

import (
	"math/bits"
	"slices"
	"strconv"

	"repro/internal/clique"
	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/trace"
)

// Edge is one undirected weighted edge of the forest.
type Edge struct {
	U, V int
	W    int64
}

// noEdge is the broadcast encoding of "no outgoing edge".
const noEdge = ^uint64(0) >> 1

// Find computes the minimum spanning forest. wRow is this node's weight
// row (graph.Inf for non-edges). Every node returns the same edge list,
// sorted by (W, U, V); ties between equal-weight edges are broken by
// the (U, V) pair, so the result is unique and deterministic. Rounds:
// 2 * ceil(log2 n) + 2.
func Find(nd clique.Endpoint, wRow []int64) []Edge {
	n := nd.N()
	me := nd.ID()

	// The merge state is a function of the announcements alone, so it
	// is computed once per lockstep run (clique.Replicated) and read by
	// every node's scan.
	m := clique.Replicated(nd, "mst/init", nil, nil, func(*boruvkaMerge, []uint64) *boruvkaMerge {
		return newBoruvkaMerge(n)
	})
	ann := make([]uint64, 2*n) // pair words, then weight words

	phases := 1
	for c := 1; c < n; c *= 2 {
		phases++
	}
	for phase := 0; phase < phases; phase++ {
		endPhase := trace.Phase(nd, boruvkaPhaseName(phase))
		// My best outgoing edge under (weight, pair) order.
		comp := m.comp
		best := Edge{U: -1, W: graph.Inf}
		for u := 0; u < n; u++ {
			if comp[u] == comp[me] || wRow[u] >= graph.Inf {
				continue
			}
			cand := Edge{U: me, V: u, W: wRow[u]}
			if better(cand, best) {
				best = cand
			}
		}
		// Two broadcast rounds: the edge pair, then the weight.
		pairWord := noEdge
		if best.U >= 0 {
			pairWord = clique.PairWord(best.U, best.V, n)
		}
		comm.BroadcastWordInto(nd, pairWord, ann[:n])
		comm.BroadcastWordInto(nd, uint64(best.W), ann[n:])

		// Deterministic global merge, identical at every node.
		next := clique.Replicated(nd, "mst/phase", m, ann, mergePhase)
		added := len(next.forest) > len(m.forest)
		m = next
		endPhase()
		if !added {
			break // no component has an outgoing edge: forest complete
		}
	}
	// The sorted forest is shared too; the caller gets its own copy.
	sorted := clique.Replicated(nd, "mst/sort", &m.forest, nil, func(forest *[]Edge, _ []uint64) *[]Edge {
		es := slices.Clone(*forest)
		sortEdges(es, n, nil)
		return &es
	})
	return slices.Clone(*sorted)
}

// mergePhase is the Borůvka merge step Find and SketchFind hand to
// clique.Replicated; tests wrap it to count how often it runs.
var mergePhase = (*boruvkaMerge).phase

// better orders candidate edges by (weight, min endpoint, max endpoint);
// the total order is what makes all nodes pick identical merges.
func better(a, b Edge) bool {
	if a.U < 0 {
		return false
	}
	if b.U < 0 {
		return true
	}
	return less(normalize(a), normalize(b))
}

// less is the package's total order on edges: lexicographic on
// (W, U, V) with U < V canonical. Every variant — Find, SketchFind,
// SparseFind, KruskalForest — breaks weight ties by this order, so
// the minimum spanning forest is unique and the variants agree edge
// for edge, not just in total weight.
func less(a, b Edge) bool {
	if a.W != b.W {
		return a.W < b.W
	}
	if a.U != b.U {
		return a.U < b.U
	}
	return a.V < b.V
}

// compareEdges is less as a three-way comparison, for slices.SortFunc.
func compareEdges(a, b Edge) int {
	switch {
	case less(a, b):
		return -1
	case less(b, a):
		return 1
	}
	return 0
}

// sortEdges sorts es, whose endpoints lie in [0, n), into the package
// order (W, U, V). With b = bits.Len(n), when every weight lies in
// [0, 2^(64−2b)), each edge packs into the key W<<2b | U<<b | V, whose
// integer order is less's, and the keys sort without a comparator
// call; otherwise es falls back to slices.SortFunc with compareEdges.
// Equal keys are equal edges, so both paths give the same slice. keys
// is scratch, used when it can hold len(es) words.
func sortEdges(es []Edge, n int, keys []uint64) {
	b := uint(bits.Len(uint(n)))
	for _, e := range es {
		// A negative weight converts with its top bit set, so it fails
		// the width test too.
		if bits.Len64(uint64(e.W)) > 64-int(2*b) {
			slices.SortFunc(es, compareEdges)
			return
		}
	}
	if cap(keys) < len(es) {
		keys = make([]uint64, len(es))
	}
	keys = keys[:len(es)]
	for i, e := range es {
		keys[i] = uint64(e.W)<<(2*b) | uint64(e.U)<<b | uint64(e.V)
	}
	slices.Sort(keys)
	mask := uint64(1)<<b - 1
	for i, k := range keys {
		es[i] = Edge{U: int(k >> b & mask), V: int(k & mask), W: int64(k >> (2 * b))}
	}
}

func normalize(e Edge) Edge {
	if e.U > e.V {
		e.U, e.V = e.V, e.U
	}
	return e
}

// Weight sums an edge list.
func Weight(es []Edge) int64 {
	var total int64
	for _, e := range es {
		total += e.W
	}
	return total
}

// KruskalOracle computes the minimum spanning forest weight centrally,
// with the same (weight, pair) tie-break as Find, for ground truth.
func KruskalOracle(g *graph.Weighted) (int64, int) {
	forest := KruskalForest(g)
	return Weight(forest), len(forest)
}

// Components labels connected components from the spanning forest:
// every node returns the full vector of component ids (the smallest
// vertex id in each component), identical everywhere. Cost: one Find.
func Components(nd clique.Endpoint, wRow []int64) []int {
	uf := newUnionFind(nd.N())
	for _, e := range Find(nd, wRow) {
		uf.union(e.U, e.V)
	}
	out := make([]int, nd.N())
	for v := range out {
		out[v] = uf.find(v)
	}
	return out
}

// boruvkaPhaseNames pre-renders span labels for every possible Borůvka
// iteration (phases <= 1 + log2(MaxN) = 17), so marking a phase on an
// untraced run formats nothing.
var boruvkaPhaseNames = func() []string {
	names := make([]string, 18)
	for i := range names {
		names[i] = "boruvka/phase " + strconv.Itoa(i)
	}
	return names
}()

// boruvkaPhaseName returns the label of iteration i.
func boruvkaPhaseName(i int) string {
	if i < len(boruvkaPhaseNames) {
		return boruvkaPhaseNames[i]
	}
	return "boruvka/phase " + strconv.Itoa(i)
}
