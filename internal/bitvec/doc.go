// Package bitvec is the bit-packed boolean data plane: dense bit-rows
// and bit-matrices stored 64 entries per uint64, with word-parallel
// kernels (OR/XOR, population counts, boolean matrix multiplication)
// that process 64 matrix entries per machine instruction instead of
// one.
//
// It exists because the Boolean-MM family — boolean matrix
// multiplication, triangle/subgraph detection, the kernelised
// parameterised algorithms — moves and combines {0,1} payloads, and
// paying one simulated word and one semiring call per entry is a 64x
// tax on both simulated bandwidth and local compute. Le Gall's
// algebraic congested-clique algorithms (arXiv:1608.02674) get their
// speedups from exactly this dense word-level representation; here the
// same trick accelerates the simulator itself. A packed word carries 64
// bits, not the model's O(log n) — the constant moves between bandwidth
// and round count, as the paper's normalisation discussion allows (see
// also clique.PackBits). The model-honest O(log n)-bit packing remains
// available as comm.BroadcastBits.
//
// Scratch discipline: rows and matrices are plain []uint64 under the
// hood, so hot paths borrow their storage from the engine's word-
// scratch pool (GetRow/PutRow, GetMatrix/PutMatrix) — the same
// run-scoped arena discipline the lockstep engine uses for mailboxes.
// Pooled buffers come back zeroed; retiring one while any alias is
// still live is the caller's bug, exactly as with engine mailboxes.
package bitvec
