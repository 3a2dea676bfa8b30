package counting

import (
	"math/big"
	"math/bits"
)

// Params identifies a protocol class.
type Params struct {
	N int // nodes
	B int // bandwidth bits per ordered pair per round
	L int // private input bits per node
	T int // rounds
	// M is the nondeterministic guess size in bits per node; zero for
	// deterministic protocols (Theorem 4 counts (n, b, M+L, t)
	// protocols).
	M int
}

// ProtocolCountLog2 returns log2 of the Lemma 1 bound:
// 2 b n^2 + 2^(M + L + b t (n-1)).
func (p Params) ProtocolCountLog2() *big.Int {
	exp := p.M + p.L + p.B*p.T*(p.N-1)
	out := big.NewInt(1)
	out.Lsh(out, uint(exp)) // 2^exp
	// 2bn², built in big.Int: the int64 product wraps for huge b.
	pairs := big.NewInt(int64(p.B))
	pairs.Mul(pairs, big.NewInt(int64(p.N)))
	pairs.Mul(pairs, big.NewInt(int64(p.N)))
	return out.Add(out, pairs.Lsh(pairs, 1))
}

// FunctionCountLog2 returns log2 of the number of Boolean functions on
// the full input: 2^(n L).
func (p Params) FunctionCountLog2() *big.Int {
	out := big.NewInt(1)
	out.Lsh(out, uint(p.N*p.L))
	return out
}

// HardFunctionExists reports whether Lemma 1 guarantees a function with
// no (n, b, M+L, t)-protocol: the protocol count bound is strictly below
// the function count, 2^exp + 2bn² < 2^(nL) with exp = M + L + bt(n−1).
//
// It compares exponents instead of building the two powers of two,
// which MaxHardRounds' search would otherwise do at up to ~10⁹ bits:
// exp ≥ nL already fails; below that 2^(nL) − 2^exp ≥ 2^(nL−1), which
// for nL > 62 exceeds any 2bn² under 2^62; and for nL ≤ 62 both sides
// fit an int64. Only a 2bn² of 2^62 or more with nL > 62, far outside
// any instance here, takes the big.Int form.
func (p Params) HardFunctionExists() bool {
	exp := p.M + p.L + p.B*p.T*(p.N-1)
	nl := p.N * p.L
	if exp >= nl {
		return false
	}
	hi, bn2 := bits.Mul64(uint64(p.B), uint64(p.N)*uint64(p.N))
	if p.N >= 1<<31 || hi != 0 || bn2 >= 1<<61 {
		if nl <= 62 {
			return false // 2bn² ≥ 2^62 ≥ 2^(nL)
		}
		return p.ProtocolCountLog2().Cmp(p.FunctionCountLog2()) < 0
	}
	if nl > 62 {
		return true
	}
	return int64(1)<<exp+int64(2*bn2) < int64(1)<<nl
}

// MaxHardRounds returns the largest t such that a hard function still
// exists for (n, b, L, t), or -1 if none does even at t = 0. The paper
// quotes the threshold t < L/b - 1; the exact value computed here is
// marginally sharper because it keeps the 2 b n^2 term.
func MaxHardRounds(n, b, L int) int {
	if !(Params{N: n, B: b, L: L, T: 0}).HardFunctionExists() {
		return -1
	}
	lo, hi := 0, n*L // far beyond any possible threshold
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if (Params{N: n, B: b, L: L, T: mid}).HardFunctionExists() {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// log2ceil returns ceil(log2 n) for n >= 1.
func log2ceil(n int) int {
	b := 0
	for 1<<b < n {
		b++
	}
	return b
}

// Theorem2Params instantiates the proof of Theorem 2 for a concrete n
// and target complexity T(n): bandwidth b = ceil(log2 n), input prefix
// length L = T(n) * b, and the hard function must avoid all
// (n, b, L, T(n)/2)-protocols. Valid reports whether the premises hold
// at this n (T(n) < n / (4 log n), as the proof assumes for large n) and
// the hard function exists.
type Theorem2Witness struct {
	Params Params
	// Upper is the round budget of the containment direction: T(n)
	// rounds suffice to broadcast the L-bit prefixes.
	Upper int
	// LowerExcluded is the round budget the hard function rules out.
	LowerExcluded int
	Valid         bool
}

// Theorem2Params builds the witness parameters for given n and T(n).
func Theorem2Params(n, Tn int) Theorem2Witness {
	b := log2ceil(n)
	L := Tn * b
	w := Theorem2Witness{
		Params:        Params{N: n, B: b, L: L, T: Tn / 2},
		Upper:         Tn,
		LowerExcluded: Tn / 2,
	}
	w.Valid = Tn >= 1 && 4*Tn*b < n && L <= n/2 && w.Params.HardFunctionExists()
	return w
}

// Theorem4Witness carries the nondeterministic construction: guess size
// M = T(n) n log(n) / 4 and the inequality
// M + L + T(n) (n-1) log n < (3/4) n L from the paper's proof.
type Theorem4Witness struct {
	Params Params // with M set; T = T(n)/4 as in the proof
	Upper  int
	Valid  bool
	// PaperInequality is the proof's sufficient condition evaluated
	// exactly.
	PaperInequality bool
}

// Theorem4Params builds the witness for given n and T(n).
func Theorem4Params(n, Tn int) Theorem4Witness {
	b := log2ceil(n)
	L := Tn * b
	M := Tn * n * b / 4
	w := Theorem4Witness{
		Params: Params{N: n, B: b, L: L, T: Tn / 4, M: M},
		Upper:  Tn,
	}
	// The counted protocols run T(n)/4 rounds, so their communication
	// term is (T/4)(n-1) log n; together with M = T n log n / 4 the sum
	// stays at (1/2 + o(1)) T n log n < (3/4) n L, as in the paper.
	lhs := M + L + (Tn/4)*(n-1)*b
	rhs := 3 * n * L / 4
	w.PaperInequality = lhs < rhs
	w.Valid = Tn >= 1 && 4*Tn*b < n && w.Params.HardFunctionExists()
	return w
}

// Theorem8Witness carries the logarithmic-hierarchy separation
// parameters: T(n) = omega(n) regime with L = T(n)^2 log n and
// M = T(n) n log(n) / 4; for every k <= T(n) the Sigma^log_k protocols
// with k guesses of M bits are counted out.
type Theorem8Witness struct {
	N, K    int
	Tn      int
	Params  Params // with M = k * (per-level M); T = T(n)^2 / 4
	Valid   bool
	PaperLH int // left-hand side of the paper's inequality, in bits
	PaperRH int // right-hand side (3/4) n L
}

// Theorem8Params builds the witness for given n, level k, and T(n).
func Theorem8Params(n, k, Tn int) Theorem8Witness {
	b := log2ceil(n)
	L := Tn * Tn * b
	M := Tn * n * b / 4
	w := Theorem8Witness{
		N: n, K: k, Tn: Tn,
		Params:  Params{N: n, B: b, L: L, T: Tn * Tn / 4, M: k * M},
		PaperLH: k*M + L + Tn*Tn*(n-1)*b/4,
		PaperRH: 3 * n * L / 4,
	}
	w.Valid = k >= 1 && k <= Tn && w.PaperLH < w.PaperRH && w.Params.HardFunctionExists()
	return w
}
