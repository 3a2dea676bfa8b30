package paths

import (
	"math"
	"slices"

	"repro/internal/clique"
	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/matmul"
	"repro/internal/trace"
)

// infWord encodes graph.Inf on the wire; any value >= infWord decodes to
// graph.Inf.
const infWord = uint64(graph.Inf)

func encodeDist(d int64) uint64 {
	if d >= graph.Inf {
		return infWord
	}
	return uint64(d)
}

func decodeDist(w uint64) int64 {
	if w >= infWord {
		return graph.Inf
	}
	return int64(w)
}

// BFSResult is one node's share of a BFS tree.
type BFSResult struct {
	// Dist is the hop distance from the source, or graph.Inf if
	// unreachable.
	Dist int64
	// Parent is the BFS-tree parent (smallest-id frontier neighbour),
	// -1 for the source and for unreachable nodes.
	Parent int
}

// BFS builds a BFS tree from src. row is this node's adjacency bitset.
// Each round the newly settled frontier announces itself with a single
// broadcast bit; unsettled nodes with a frontier neighbour join. The
// algorithm runs ecc(src)+2 rounds: one per BFS layer plus an empty round
// that every node observes simultaneously and interprets as termination.
func BFS(nd clique.Endpoint, row graph.Bitset, src int) BFSResult {
	me := nd.ID()
	n := nd.N()
	res := BFSResult{Dist: graph.Inf, Parent: -1}
	settled := me == src
	if settled {
		res.Dist = 0
	}
	announce := settled // I joined the frontier in the previous "round"
	for depth := int64(1); ; depth++ {
		frontier := comm.Flags(nd, announce)
		announce = false
		anyAnnounced := false
		for p := 0; p < n; p++ {
			if p == me || !frontier[p] {
				continue
			}
			anyAnnounced = true
			if !settled && row.Has(p) {
				settled = true
				res.Dist = depth
				res.Parent = p
				announce = true
			}
		}
		if !anyAnnounced {
			return res
		}
	}
}

// SSSPResult is one node's share of a shortest-path computation.
type SSSPResult struct {
	// Dist is the node's distance from the source (graph.Inf if
	// unreachable).
	Dist int64
	// Rounds is the number of Bellman-Ford iterations executed,
	// reported for the experiment harness.
	Rounds int
}

// SSSP computes single-source shortest paths by distributed
// Bellman-Ford: every round each node broadcasts its tentative distance
// (one word) and relaxes over its incident edges. inRow[u] must hold the
// weight of the edge u -> me (for undirected graphs this is the node's
// ordinary weight row). Converges in h+1 rounds where h is the maximum
// hop count of a shortest path tree — O(n) worst case, O(log n)-ish on
// dense random graphs. Termination is detected globally: a round in
// which no broadcast value changed is visible to all nodes at once.
func SSSP(nd clique.Endpoint, inRow []int64, src int) SSSPResult {
	me := nd.ID()
	n := nd.N()
	dist := graph.Inf
	if me == src {
		dist = 0
	}
	// Termination must be decided identically at every node, or some
	// nodes would leave the loop a round before others. The predicate
	// "did any node's round-r broadcast differ from its round-(r-1)
	// broadcast" is computable by everyone from the same data (each
	// node's own broadcast included), and once it is false the
	// relaxation inputs have stabilised, so distances are final.
	lastSeen := make([]uint64, n)
	seen := make([]uint64, n) // reused broadcast table, one per round
	rounds := 0
	first := true
	for {
		rounds++
		seen = comm.BroadcastWordInto(nd, encodeDist(dist), seen)
		changed := first
		for u := 0; u < n; u++ {
			w := seen[u]
			if u != me {
				du := decodeDist(w)
				if du < graph.Inf && inRow[u] < graph.Inf {
					if alt := du + inRow[u]; alt < dist {
						dist = alt
					}
				}
			}
			if !first && w != lastSeen[u] {
				changed = true
			}
			lastSeen[u] = w
		}
		if !changed {
			return SSSPResult{Dist: dist, Rounds: rounds}
		}
		first = false
	}
}

// hopRounds returns how many squarings cover paths of up to n-1 hops:
// ceil(log2(n-1)) with a minimum of 1.
func hopRounds(n int) int {
	if n <= 2 {
		return 1
	}
	return int(math.Ceil(math.Log2(float64(n - 1))))
}

// APSP computes this node's row of the all-pairs shortest path matrix by
// repeated (min,+) squaring of the weight matrix: D_{2h} = D_h (x) D_h.
// Squaring stops at the fixed point D (x) D = D, which for non-negative
// weights and a 0 diagonal is the distance matrix. That takes
// ceil(log2 D_hop) + 1 squarings, where D_hop is the largest number of
// hops any pair needs on a shortest path, and never more than the
// ceil(log2 (n-1)) that cover every simple path. With mul = matmul.Mul3D
// this runs in O(n^{1/3} log D_hop) rounds, capped at O(n^{1/3} log n):
// the implemented upper bound for weighted directed APSP in Figure 1.
// Exactly, k squarings cost k times the rounds of one Mul3D product, a
// function of n and the per-pair budget alone, plus one vote round after
// each squaring but the last allowed one.
// wRow is the node's weight row (out-edges for directed graphs) with 0
// on the diagonal.
func APSP(nd clique.Endpoint, wRow []int64, mul matmul.MulFunc) []int64 {
	return squareToFixedPoint(nd, matmul.MinPlus{}, append([]int64(nil), wRow...), mul)
}

// TransitiveClosure computes this node's row of the reflexive-transitive
// closure by Boolean squaring of (A or I) up to its fixed point, as APSP
// does: O(n^{1/3} log D_hop) rounds via Mul3D, capped at
// O(n^{1/3} log n), where D_hop is the largest hop distance between two
// mutually reachable nodes. adjRow is the node's Boolean adjacency row.
// Figure 1 places transitive closure with Boolean matrix multiplication.
func TransitiveClosure(nd clique.Endpoint, adjRow []int64, mul matmul.MulFunc) []int64 {
	row := append([]int64(nil), adjRow...)
	row[nd.ID()] = 1 // reflexive
	return squareToFixedPoint(nd, matmul.Boolean{}, row, mul)
}

// squareToFixedPoint squares the distributed matrix whose row this node
// holds until no row changes, or hopRounds(n) squarings have run. After
// every squaring but the last allowed one, each node checks whether its
// own row changed and one AND round lets all nodes leave the loop
// together. The worst case costs hopRounds squarings plus hopRounds-1
// vote rounds.
func squareToFixedPoint(nd clique.Endpoint, s matmul.Semiring, row []int64, mul matmul.MulFunc) []int64 {
	limit := hopRounds(nd.N())
	for i := 1; ; i++ {
		endSquare := trace.Phase(nd, "paths/square")
		next := mul(nd, s, row, row)
		endSquare()
		if i == limit {
			return next
		}
		endVote := trace.Phase(nd, "paths/converged")
		stable := comm.AndBool(nd, slices.Equal(next, row))
		endVote()
		if stable {
			return next
		}
		row = next
	}
}

// ApproxAPSP computes a (1+eps)-approximate APSP row: exact (min,+)
// squarings interleaved with rounding every entry up to the next power
// of (1+delta), delta = eps/(2 * squarings). Each squaring then inflates
// distances by at most (1+delta), so the final values D' satisfy
// D <= D' <= (1+delta)^squarings * D <= (1+eps) * D for eps <= 1.
// Round complexity matches exact APSP; the paper's Figure 1 uses
// approximate variants only as reduction targets, and this implementation
// realises the approximation guarantee those arrows rely on.
func ApproxAPSP(nd clique.Endpoint, wRow []int64, eps float64, mul matmul.MulFunc) []int64 {
	if eps <= 0 {
		nd.Fail("paths: ApproxAPSP needs eps > 0")
	}
	squarings := hopRounds(nd.N())
	delta := eps / (2 * float64(squarings))
	row := append([]int64(nil), wRow...)
	for i := 0; i < squarings; i++ {
		row = mul(nd, matmul.MinPlus{}, row, row)
		for j, d := range row {
			row[j] = roundUpPow(d, delta)
		}
	}
	return row
}

// roundUpPow inflates d to floor(d * (1+delta)), leaving 0 and Inf
// alone. The result is at least d and at most (1+delta) * d, which is
// the per-squaring inflation the ApproxAPSP error analysis needs.
// (Rounding to integer powers of (1+delta) would break the multiplicative
// bound for small integer distances, where the ceiling can jump by a
// factor of 3/2.)
func roundUpPow(d int64, delta float64) int64 {
	if d <= 0 || d >= graph.Inf {
		return d
	}
	return d + int64(float64(d)*delta)
}

// Diameter computes the (unweighted, undirected) diameter of the input
// graph: every node computes its row of hop distances via APSP on the
// 0/1/Inf weight matrix, takes a local maximum of the finite entries,
// and one max-reduction round combines them. Returns graph.Inf if the
// graph is disconnected. APSP's fixed-point stop makes this
// O(n^{1/3} log D) rounds via Mul3D, D the largest finite hop distance,
// capped at O(n^{1/3} log n).
func Diameter(nd clique.Endpoint, adjRow []int64, mul matmul.MulFunc) int64 {
	n := nd.N()
	wRow := make([]int64, n)
	for j, a := range adjRow {
		switch {
		case j == nd.ID():
			wRow[j] = 0
		case a != 0:
			wRow[j] = 1
		default:
			wRow[j] = graph.Inf
		}
	}
	row := APSP(nd, wRow, mul)
	local := int64(0)
	disconnected := false
	for _, d := range row {
		if d >= graph.Inf {
			disconnected = true
		} else if d > local {
			local = d
		}
	}
	if disconnected {
		local = graph.Inf
	}
	return decodeDist(comm.MaxWord(nd, encodeDist(local)))
}
