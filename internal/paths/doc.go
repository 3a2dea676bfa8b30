// Package paths implements the shortest-path and reachability problems
// from the left column of Figure 1 of the paper: BFS trees, single-source
// shortest paths (unweighted/weighted), all-pairs shortest paths via
// (min,+) matrix squaring, transitive closure via Boolean squaring, and
// (1+eps)-approximate distances via rounded squaring.
//
// Exact APSP, transitive closure and the diameter square until the
// matrix stops changing: after each squaring one AND round tells every
// node whether any row moved. With matmul.Mul3D that is
// O(n^{1/3} log D) rounds, where D is the largest hop count a shortest
// path needs, capped at the O(n^{1/3} log n) of ceil(log2(n-1))
// squarings. Over (min,+) each squaring is one Mul3D product on its
// fixed two-hop schedule, whose rounds are a function of n and the
// per-pair budget alone (8 at 8 words per pair from n = 125 to 343),
// so k squarings cost k products plus one vote round after each
// squaring but a last one at the cap: 4 x 8 + 4 = 36 rounds for the
// n = 216 instance of Figure 1's APSP row. ApproxAPSP always runs the
// full count, because its rounding step is sized from it. Each squaring
// is traced as a "paths/square" phase and each vote as
// "paths/converged".
//
// Inputs follow the model's convention: every algorithm takes only the
// calling node's local view (its adjacency or weight row) plus globally
// known parameters (source id, epsilon), and returns the node's own share
// of the output.
package paths
