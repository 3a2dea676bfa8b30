// Package matmul implements distributed matrix multiplication over
// semirings in the congested clique, the workhorse of the centre column
// of Figure 1 of the paper (Boolean MM, ring MM, (min,+) MM, and through
// them transitive closure and the shortest-path problems).
//
// Two communication schedules are provided: the naive all-to-all
// broadcast at Theta(n) rounds and the 3D block decomposition of
// Censor-Hillel, Kaski, Korhonen, Lenzen, Paz and Suomela (PODC 2015,
// reference [10] of the paper) at O(n^{1/3}) rounds for any semiring.
// The 3D schedule's traffic is a function of n alone, so its three
// phases run over comm.TwoHop on plans that every node and run using a
// size shares, built once while in use and left to the garbage
// collector when none holds them: each entry ships as one word at an
// implicit position, through an intermediate chosen by the prefix rule
// in Mul3D's doc.
// The paper additionally cites an O(n^{1-2/omega}) schedule for ring
// matrix multiplication; we record that as a literature bound in package
// fgc rather than re-implementing fast bilinear algorithms — see
// DESIGN.md section 5.
//
// Boolean-semiring calls dispatch to the bit-packed plane (bitmul.go):
// MulNaiveBits and Mul3DBits represent rows as bitvec.Row at 64 entries
// per word — the dense word-level representation Le Gall's algebraic
// congested-clique algorithms (arXiv:1608.02674) build on — shipping
// ceil(n/64) words per row over the packed collectives and multiplying
// with word-parallel OR kernels. Outputs are bit-identical to the
// unpacked schedules (pinned by FuzzPackedMatmulEquivalence).
package matmul
