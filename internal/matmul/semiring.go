package matmul

import "repro/internal/graph"

// Semiring is the algebraic structure matrix products are computed over.
// Entries are int64; graph.Inf plays the role of "no entry" where the
// semiring needs one.
type Semiring interface {
	// Add is the semiring addition (OR, +, or min).
	Add(a, b int64) int64
	// Mul is the semiring multiplication (AND, *, or saturating +).
	Mul(a, b int64) int64
	// Zero is the additive identity (0, 0, or Inf).
	Zero() int64
	// Name identifies the semiring in experiment output.
	Name() string
}

// Boolean is the ({0,1}, OR, AND) semiring.
type Boolean struct{}

// Add implements Semiring.
func (Boolean) Add(a, b int64) int64 {
	if a != 0 || b != 0 {
		return 1
	}
	return 0
}

// Mul implements Semiring.
func (Boolean) Mul(a, b int64) int64 {
	if a != 0 && b != 0 {
		return 1
	}
	return 0
}

// Zero implements Semiring.
func (Boolean) Zero() int64 { return 0 }

// Name implements Semiring.
func (Boolean) Name() string { return "boolean" }

// MinPlus is the tropical (min, +) semiring with Inf as the additive
// identity; powers of a weight matrix over MinPlus give shortest path
// distances.
type MinPlus struct{}

// Add implements Semiring.
func (MinPlus) Add(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Mul implements Semiring.
func (MinPlus) Mul(a, b int64) int64 {
	if a >= graph.Inf || b >= graph.Inf {
		return graph.Inf
	}
	return a + b
}

// Zero implements Semiring.
func (MinPlus) Zero() int64 { return graph.Inf }

// Name implements Semiring.
func (MinPlus) Name() string { return "min-plus" }

// MulLocal is the centralized reference product C = A (x) B over s; it is
// also the kernel the 3D algorithm runs on local blocks, where the model
// charges nothing for it.
func MulLocal(s Semiring, a, b [][]int64) [][]int64 {
	n := len(a)
	c := zeroBlock(s, n, len(b[0]))
	if _, ok := s.(MinPlus); ok {
		mulMinPlus(a, b, c)
		return c
	}
	skipZero := isAnnihilating(s)
	for i, row := range c {
		for k, aik := range a[i] {
			if skipZero && aik == s.Zero() {
				continue
			}
			bk := b[k]
			for j := range row {
				row[j] = s.Add(row[j], s.Mul(aik, bk[j]))
			}
		}
	}
	return c
}

// mulMinPlus is MulLocal's (min, +) kernel over c, which starts at Inf:
// the generic loop's Mul yields Inf whenever either operand is at least
// Inf, and min with Inf leaves an entry that starts at Inf and only
// falls unchanged, so skipping those terms gives the same product
// without two interface calls per term.
func mulMinPlus(a, b, c [][]int64) {
	for i, row := range c {
		for k, aik := range a[i] {
			if aik >= graph.Inf {
				continue
			}
			bk := b[k][:len(row)]
			for j, bkj := range bk {
				if bkj < graph.Inf && aik+bkj < row[j] {
					row[j] = aik + bkj
				}
			}
		}
	}
}

// isAnnihilating reports whether Zero annihilates under Mul (true for
// every semiring the package and its tests use), enabling the sparse skip
// in MulLocal.
func isAnnihilating(s Semiring) bool {
	z := s.Zero()
	return s.Mul(z, 1) == z && s.Mul(1, z) == z
}

// AdjacencyRow returns row v of g's Boolean adjacency matrix.
func AdjacencyRow(g *graph.Graph, v int) []int64 {
	row := make([]int64, g.N)
	g.Neighbors(v, func(u int) { row[u] = 1 })
	return row
}

// zeroBlock returns a rows x cols block filled with the semiring zero,
// its cap-limited rows carved from one backing array.
func zeroBlock(s Semiring, rows, cols int) [][]int64 {
	backing := make([]int64, rows*cols)
	if zero := s.Zero(); zero != 0 {
		for i := range backing {
			backing[i] = zero
		}
	}
	blk := make([][]int64, rows)
	for i := range blk {
		blk[i] = backing[i*cols : (i+1)*cols : (i+1)*cols]
	}
	return blk
}
