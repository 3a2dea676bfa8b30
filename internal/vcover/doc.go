// Package vcover implements Theorem 11 of the paper: a vertex cover of
// size k can be found in O(k) rounds in the congested clique — the
// round complexity depends only on the parameter k, not on n, which is
// the paper's point of contrast with k-IS and k-DS in Section 7.3.
//
// The algorithm is the distributed Buss kernelisation (Lemma 12): every
// vertex of degree > k must belong to any size-k cover, so such vertices
// join the cover and announce it (one round); the remaining vertices
// have degree <= k, so each can broadcast all of its still-uncovered
// edges in k rounds; every node then solves the kernel locally. When a
// single bit-packed broadcast of the uncovered-neighbour mask is
// strictly cheaper than those k one-word rounds, the kernel exchange
// rides the packed collective plane instead, capping the cost at
// 1 + min(k, ceil(ceil(n/64)/wordsPerPair)) rounds while keeping the
// fixed-cost shape (and thus yes/no indistinguishability) intact. The
// local solve builds the kernel graph over the announced edges'
// endpoints only, O(k²) vertices on a yes-instance rather than n.
package vcover
