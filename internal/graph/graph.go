package graph

import (
	"fmt"
	"math"
	"strings"
)

// Graph is a simple undirected graph on vertices 0..N-1 with bitset
// adjacency rows. Self-loops are not representable.
type Graph struct {
	N   int
	adj []Bitset
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative order %d", n))
	}
	g := &Graph{N: n, adj: make([]Bitset, n)}
	for i := range g.adj {
		g.adj[i] = NewBitset(n)
	}
	return g
}

// AddEdge inserts the undirected edge {u, v}. Adding an existing edge is a
// no-op; adding a self-loop panics, as the model's graphs are simple.
func (g *Graph) AddEdge(u, v int) {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at %d", u))
	}
	g.adj[u].Set(v)
	g.adj[v].Set(u)
}

// RemoveEdge deletes the undirected edge {u, v} if present.
func (g *Graph) RemoveEdge(u, v int) {
	g.adj[u].Clear(v)
	g.adj[v].Clear(u)
}

// HasEdge reports whether {u, v} is an edge. HasEdge(v, v) is false.
func (g *Graph) HasEdge(u, v int) bool {
	if u == v {
		return false
	}
	return g.adj[u].Has(v)
}

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return g.adj[v].Count() }

// Row returns v's adjacency bitset. The caller must not modify it.
func (g *Graph) Row(v int) Bitset { return g.adj[v] }

// ClosedRowInto writes N[v], v together with its neighbours, into dst
// (which must have as many words as a row) and returns dst.
func (g *Graph) ClosedRowInto(dst Bitset, v int) Bitset {
	copy(dst, g.adj[v])
	dst.Set(v)
	return dst
}

// Neighbors calls f for each neighbor of v in increasing order.
func (g *Graph) Neighbors(v int, f func(u int)) { g.adj[v].Each(f) }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int {
	total := 0
	for v := 0; v < g.N; v++ {
		total += g.adj[v].Count()
	}
	return total / 2
}

// Edges calls f once per undirected edge with u < v.
func (g *Graph) Edges(f func(u, v int)) {
	for u := 0; u < g.N; u++ {
		g.adj[u].Each(func(v int) {
			if u < v {
				f(u, v)
			}
		})
	}
}

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	h := &Graph{N: g.N, adj: make([]Bitset, g.N)}
	for i := range g.adj {
		h.adj[i] = g.adj[i].Clone()
	}
	return h
}

// Complement returns the complement graph.
func (g *Graph) Complement() *Graph {
	h := New(g.N)
	for u := 0; u < g.N; u++ {
		for v := u + 1; v < g.N; v++ {
			if !g.HasEdge(u, v) {
				h.AddEdge(u, v)
			}
		}
	}
	return h
}

// Equal reports structural equality (same order, same edge set).
func (g *Graph) Equal(h *Graph) bool {
	if g.N != h.N {
		return false
	}
	for v := 0; v < g.N; v++ {
		a, b := g.adj[v], h.adj[v]
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
	}
	return true
}

// InducedSubgraph returns the subgraph induced by the given vertices,
// relabelled 0..len(vs)-1 in the given order.
func (g *Graph) InducedSubgraph(vs []int) *Graph {
	h := New(len(vs))
	for i, u := range vs {
		for j := i + 1; j < len(vs); j++ {
			if g.HasEdge(u, vs[j]) {
				h.AddEdge(i, j)
			}
		}
	}
	return h
}

// String renders the edge list, mainly for test failure messages.
func (g *Graph) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "graph(n=%d;", g.N)
	g.Edges(func(u, v int) { fmt.Fprintf(&sb, " %d-%d", u, v) })
	sb.WriteString(")")
	return sb.String()
}

// Inf is the "no edge / unreachable" distance sentinel for weighted
// graphs and distance matrices. It is far below overflow range so that
// Inf + maxWeight does not wrap.
const Inf int64 = math.MaxInt64 / 4

// Weighted is a weighted graph, directed or undirected, on vertices
// 0..N-1. W[u][v] is the weight of the edge u->v, or Inf if absent.
// W[v][v] is 0 by construction. The paper assumes weights encodable in
// O(log n) bits, i.e. poly(n)-bounded; generators respect that.
type Weighted struct {
	N        int
	Directed bool
	W        [][]int64
}

// NewWeighted returns an edgeless weighted graph on n vertices.
func NewWeighted(n int, directed bool) *Weighted {
	w := make([][]int64, n)
	for i := range w {
		w[i] = make([]int64, n)
		for j := range w[i] {
			if i != j {
				w[i][j] = Inf
			}
		}
	}
	return &Weighted{N: n, Directed: directed, W: w}
}

// SetEdge sets the weight of u->v (and v->u if undirected).
func (g *Weighted) SetEdge(u, v int, w int64) {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at %d", u))
	}
	g.W[u][v] = w
	if !g.Directed {
		g.W[v][u] = w
	}
}

// HasEdge reports whether u->v is an edge.
func (g *Weighted) HasEdge(u, v int) bool {
	return u != v && g.W[u][v] < Inf
}

// Clone returns a deep copy.
func (g *Weighted) Clone() *Weighted {
	h := NewWeighted(g.N, g.Directed)
	for i := range g.W {
		copy(h.W[i], g.W[i])
	}
	return h
}

// FromUnweighted lifts an undirected graph to a weighted one with unit
// weights.
func FromUnweighted(g *Graph) *Weighted {
	h := NewWeighted(g.N, false)
	g.Edges(func(u, v int) { h.SetEdge(u, v, 1) })
	return h
}

// PrivateAssignment realises the paper's Section 3 input convention: every
// potential edge bit {u, v} is owned by exactly one endpoint, and each
// node owns at least floor((n-1)/2) bits. Owner(u, v) returns the owner of
// the unordered pair. The rule is the balanced tournament orientation:
// {u, v} belongs to u iff (v - u) mod n lies in 1..floor((n-1)/2), with
// ties for even n (difference exactly n/2) broken towards the smaller id.
type PrivateAssignment struct{ N int }

// Owner returns the owner of the pair {u, v}, u != v.
func (p PrivateAssignment) Owner(u, v int) int {
	if u == v {
		panic("graph: PrivateAssignment.Owner of a self-pair")
	}
	n := p.N
	d := ((v-u)%n + n) % n
	half := (n - 1) / 2
	switch {
	case d >= 1 && d <= half:
		return u
	case n%2 == 0 && d == n/2:
		if u < v {
			return u
		}
		return v
	default:
		return v
	}
}

// OwnedPairs calls f for every pair {v, u} owned by v, identifying the
// pair by its other endpoint u.
func (p PrivateAssignment) OwnedPairs(v int, f func(u int)) {
	for u := 0; u < p.N; u++ {
		if u != v && p.Owner(v, u) == v {
			f(u)
		}
	}
}
