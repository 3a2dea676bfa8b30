// Package nondet implements Section 5 of the paper: nondeterministic
// congested clique algorithms. A nondeterministic algorithm A takes, in
// addition to the input graph, a labelling z assigning every node a
// certificate, and decides a language L in the sense that
//
//	G in L  iff  exists z : A(G, z) = 1,
//
// where A(G, z) = 1 means every node outputs 1. The package provides the
// execution harness, certificates and verifiers for two natural
// NCLIQUE(1) problems the paper names (k-colouring and Hamiltonian
// path), and the Theorem 3 normal form: any nondeterministic algorithm
// can be replaced by one whose certificates are communication
// transcripts of size O(T(n) n log n). Theorem 6's edge labelling
// problems, the canonical NCLIQUE(1) family, live in package core.
package nondet
