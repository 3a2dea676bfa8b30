// Package gather implements the trivial full-information algorithms of
// the congested clique: every node learns the entire input graph by
// broadcasting its adjacency row with honest O(log n)-bit packing, which
// takes ceil(n / (log n * wordsPerPair)) rounds, and then solves the
// problem locally for free. These are the delta <= 1 upper bounds that
// problems like maximum independent set, minimum vertex cover and
// k-colouring carry in Figure 1 of the paper. The solvers key the
// local solve on the broadcast words, identical at every node, so a
// lockstep run builds the graph and solves it once (clique.Replicated);
// Full still builds the graph at each node, for callers whose nodes do
// not share (a virtual clique's).
package gather
