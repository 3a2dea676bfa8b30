// Package sketch implements ℓ₀-sampling linear graph sketches in the
// AGM (Ahn–Guilbas–McGregor) style — the randomized primitive behind
// the O(1)-round and o(m)-message congested-clique MST algorithms
// (Jurdziński–Nowicki, arXiv:1707.08484; Pemmaraju–Sardeshmukh,
// arXiv:1610.03897).
//
// A Sketch summarises a set of edge coordinates (ids < n², always
// nonzero for u < v pairs) in Reps × Levels cells of two XOR
// accumulator words each, packed into one bitvec.Row that is directly
// wire-compatible with the simulator's word payloads. Level ℓ of each
// repetition retains a coordinate with probability 2^-ℓ, decided by a
// pairwise-independent hash h(x) = (a·x + b) mod (2^61 − 1) seeded
// deterministically from the sketch Params, so every node of a clique
// derives the identical family from a shared seed.
//
// Because every cell is a pure XOR accumulator, the structure is
// linear over GF(2): Merge is word-parallel XOR, and the merge of two
// sketches is bit-identically the sketch of the symmetric difference
// of their edge sets. That is the property the MST algorithms lean on
// — XOR-ing the incidence sketches of a component's members cancels
// internal edges and leaves exactly the sketch of the component's cut
// — and the property the package's tests and fuzz target pin.
//
// Sample recovers some coordinate of the sketched set w.h.p. by
// scanning for a 1-sparse cell, verified against an independent
// fingerprint hash; it is Monte Carlo and may report not-found on a
// nonempty set (probability falls geometrically with Reps).
package sketch
