package mst

import "repro/internal/graph"

// unionFind is the shared merge structure of the MST family. Roots
// are always the minimum vertex id of their component, matching the
// "component label = smallest member" convention every variant (and
// the coordinator of SparseFind) relies on.
type unionFind []int

func newUnionFind(n int) unionFind {
	u := make(unionFind, n)
	for i := range u {
		u[i] = i
	}
	return u
}

func (u unionFind) find(x int) int {
	for u[x] != x {
		u[x] = u[u[x]]
		x = u[x]
	}
	return x
}

// union merges the components of a and b, keeping the smaller root as
// the label; reports whether a merge happened.
func (u unionFind) union(a, b int) bool {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return false
	}
	if ra > rb {
		ra, rb = rb, ra
	}
	u[rb] = ra
	return true
}

// boruvkaMerge is the replicated Borůvka merge every node of Find and
// of SketchFind's seed phases runs on the same announcements, so all
// nodes reach the same forest and labels. A phase offers each
// announced edge, then merge applies, in ascending component label,
// every component's best offered edge that still joins two
// components. Labels are minimum member ids, kept by unionFind's
// min-id roots, and comp is rewritten once per phase, so a phase costs
// O(n α(n)) however many edges it merges.
type boruvkaMerge struct {
	// comp[v] is the label of v's component at the start of the
	// phase; it changes only in merge.
	comp []int
	uf   unionFind
	// best[c] is the best edge offered out of component c this phase
	// (U < 0 when none); merge resets it as it drains it.
	best   []Edge
	forest []Edge
}

func newBoruvkaMerge(n int) *boruvkaMerge {
	// A forest has at most n−1 edges, so merge never grows forest.
	m := &boruvkaMerge{comp: make([]int, n), uf: newUnionFind(n), best: make([]Edge, n),
		forest: make([]Edge, 0, max(n-1, 0))}
	for v := range m.comp {
		m.comp[v] = v
		m.best[v] = Edge{U: -1}
	}
	return m
}

// offer records e, announced by its endpoint e.U, as a candidate for
// e.U's component, keeping the better one under the package order.
func (m *boruvkaMerge) offer(e Edge) {
	c := m.comp[e.U]
	if better(e, m.best[c]) {
		m.best[c] = e
	}
}

// merge ends the phase: it applies the best offered edges in ascending
// label order, skipping any whose endpoints an earlier merge of the
// phase already joined, and relabels comp. It reports whether any edge
// joined the forest.
func (m *boruvkaMerge) merge() bool {
	added := false
	for c, e := range m.best {
		if e.U < 0 {
			continue
		}
		m.best[c] = Edge{U: -1}
		if m.uf.union(e.U, e.V) {
			m.forest = append(m.forest, normalize(e))
			added = true
		}
	}
	for v := range m.comp {
		m.comp[v] = m.uf.find(v)
	}
	return added
}

// KruskalForest computes the minimum spanning forest centrally under
// the same (weight, u, v) total order as the distributed variants.
// Because the order is total, the forest is unique, so Find,
// SketchFind and SparseFind must agree with it edge for edge — the
// oracle the equivalence tests pin against.
func KruskalForest(g *graph.Weighted) []Edge {
	var edges []Edge
	for u := 0; u < g.N; u++ {
		for v := u + 1; v < g.N; v++ {
			if g.HasEdge(u, v) {
				edges = append(edges, Edge{U: u, V: v, W: g.W[u][v]})
			}
		}
	}
	sortEdges(edges, g.N, nil)
	uf := newUnionFind(g.N)
	var forest []Edge
	for _, e := range edges {
		if uf.union(e.U, e.V) {
			forest = append(forest, e)
		}
	}
	return forest
}
