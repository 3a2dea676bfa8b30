package counting

import (
	"math/bits"

	"repro/internal/bitvec"
)

// This file makes Lemma 1 *constructive* at micro scale: for the
// two-node clique with b = 1 bit of bandwidth, L input bits per node and
// t = 1 round, it enumerates every protocol exhaustively, marks every
// Boolean function some protocol computes, and exhibits the
// lexicographically-first function computed by none — the same
// "first function under the lexicographic ordering" the proof of
// Theorem 2 selects as f_n. The hierarchy theorems only need such
// functions to exist; here one can actually look at it.
//
// Protocol model at (n, b, L, t) = (2, 1, L, 1): node i holds x_i in
// {0,1}^L, sends one bit m_i(x_i) to the other node, then outputs
// out_i(x_i, m_{1-i}). The protocol computes f iff both outputs equal
// f(x_0, x_1) on all 2^{2L} inputs.

// DiagonalisationResult summarises the exhaustive enumeration.
type DiagonalisationResult struct {
	L int
	// TotalFunctions is 2^(2^(2L)), the number of Boolean functions on
	// the joint input.
	TotalFunctions uint64
	// Realised is how many of them have a protocol.
	Realised uint64
	// ValidProtocols counts (m_0, m_1, out_0, out_1) tuples whose two
	// outputs agree on every input (only those compute a function).
	ValidProtocols uint64
	// FirstHard is the truth table (bit i = f(input i), input =
	// x_0 * 2^L + x_1) of the lexicographically-first function with no
	// protocol. Defined only if Realised < TotalFunctions.
	FirstHard uint64
	// HardExists reports Realised < TotalFunctions.
	HardExists bool
	// Lemma1BoundLog2 is the Lemma 1 upper bound exponent for
	// comparison (the true count is far smaller).
	Lemma1BoundLog2 uint64
}

// Diagonalise runs the exhaustive enumeration for input length L per
// node. L must be 1 or 2 (the state space is 2^(3 * 2^L * 2)-ish and
// explodes quickly; L = 2 already enumerates 2^24 protocol tuples).
func Diagonalise(L int) DiagonalisationResult {
	if L < 1 || L > 2 {
		panic("counting: Diagonalise supports L in {1, 2}")
	}
	inputs := 1 << L            // per-node inputs
	joint := 1 << (2 * L)       // joint inputs; truth tables have `joint` bits
	numMsg := 1 << inputs       // message functions {0,1}^L -> {0,1}
	numOut := 1 << (2 * inputs) // output functions {0,1}^(L+1) -> {0,1}

	// realised marks truth tables with a protocol — one bit per table
	// (the diagonal table of the proof), so counting the realisable
	// functions and finding the first hard one are word-parallel
	// popcount / first-zero scans.
	realised := bitvec.NewRow(1 << joint)
	var validProtocols uint64

	// For node 0: out_0(x_0, m) indexed as x_0 + m*inputs.
	// Truth table bit index: x_0 * inputs + x_1.
	table0 := make([]uint32, numOut)
	table1 := make([]uint32, numOut)
	count0 := make(map[uint32]uint64, numOut)
	count1 := make(map[uint32]uint64, numOut)

	for m0 := 0; m0 < numMsg; m0++ {
		for m1 := 0; m1 < numMsg; m1++ {
			// Tables reachable by node 0's output under (m0, m1).
			for out := 0; out < numOut; out++ {
				var t0, t1 uint32
				for x0 := 0; x0 < inputs; x0++ {
					for x1 := 0; x1 < inputs; x1++ {
						idx := uint32(x0*inputs + x1)
						// Node 0 sees x0 and m1(x1).
						recv0 := (m1 >> x1) & 1
						if (out>>(x0+recv0*inputs))&1 == 1 {
							t0 |= 1 << idx
						}
						// Node 1 sees x1 and m0(x0).
						recv1 := (m0 >> x0) & 1
						if (out>>(x1+recv1*inputs))&1 == 1 {
							t1 |= 1 << idx
						}
					}
				}
				table0[out], table1[out] = t0, t1
			}
			clear(count0)
			clear(count1)
			for out := 0; out < numOut; out++ {
				count0[table0[out]]++
				count1[table1[out]]++
			}
			// A protocol is valid iff node 0's table equals node 1's.
			for tbl, c0 := range count0 {
				if c1 := count1[tbl]; c1 > 0 {
					validProtocols += c0 * c1
					realised.Set(int(tbl))
				}
			}
		}
	}

	res := DiagonalisationResult{
		L:              L,
		TotalFunctions: 1 << joint,
	}
	res.Realised = uint64(realised.OnesCount())
	if z := realised.NextZero(0, 1<<joint); z >= 0 {
		res.HardExists = true
		res.FirstHard = uint64(z)
	}
	res.ValidProtocols = validProtocols
	p := Params{N: 2, B: 1, L: L, T: 1}
	res.Lemma1BoundLog2 = p.ProtocolCountLog2().Uint64()
	return res
}

// HammingWeight counts the ones of a truth table, used by experiments to
// describe the first hard function.
func HammingWeight(table uint64) int { return bits.OnesCount64(table) }

// VerifyHard exhaustively confirms that no (2, 1, L, 1)-protocol
// computes the given truth table, by direct search over all protocol
// tuples. Quadratically slower than Diagonalise's marking pass; used by
// tests to double-check the first hard function.
func VerifyHard(table uint64, L int) bool {
	inputs := 1 << L
	numMsg := 1 << inputs
	for m0 := 0; m0 < numMsg; m0++ {
		for m1 := 0; m1 < numMsg; m1++ {
			// Check whether suitable out0, out1 exist: for each
			// (x, received) pair the required output is forced by the
			// table; the protocol fails only if two inputs force
			// conflicting values for the same (x, received) slot.
			if consistent(table, L, m0, m1) {
				return false
			}
		}
	}
	return true
}

// consistent reports whether output functions exist completing (m0, m1)
// to a protocol for the table.
func consistent(table uint64, L, m0, m1 int) bool {
	inputs := 1 << L
	// forced0[x0 + recv*inputs] in {-1, 0, 1}.
	forced0 := make([]int8, 2*inputs)
	forced1 := make([]int8, 2*inputs)
	for i := range forced0 {
		forced0[i], forced1[i] = -1, -1
	}
	for x0 := 0; x0 < inputs; x0++ {
		for x1 := 0; x1 < inputs; x1++ {
			want := int8(table >> (x0<<L | x1) & 1)
			s0 := x0 + ((m1>>x1)&1)*inputs
			if forced0[s0] >= 0 && forced0[s0] != want {
				return false
			}
			forced0[s0] = want
			s1 := x1 + ((m0>>x0)&1)*inputs
			if forced1[s1] >= 0 && forced1[s1] != want {
				return false
			}
			forced1[s1] = want
		}
	}
	return true
}
