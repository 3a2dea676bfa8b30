package matmul

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/clique"
	"repro/internal/graph"
)

// genericMinPlus is MinPlus under another type, so MulLocal runs its
// generic semiring loop on it instead of the (min, +) kernel.
type genericMinPlus struct{}

func (genericMinPlus) Add(a, b int64) int64 { return MinPlus{}.Add(a, b) }
func (genericMinPlus) Mul(a, b int64) int64 { return MinPlus{}.Mul(a, b) }
func (genericMinPlus) Zero() int64          { return graph.Inf }
func (genericMinPlus) Name() string         { return "min-plus-generic" }

// minPlusEntry draws one matrix entry from the classes the kernel's
// skips tell apart: Inf, values above Inf, zero, small weights, large
// finite weights whose sums reach past Inf, and negative weights, whose
// sums with Inf fall below it.
func minPlusEntry(rng *rand.Rand) int64 {
	switch rng.IntN(7) {
	case 0:
		return graph.Inf
	case 1:
		return graph.Inf + 1 + rng.Int64N(graph.Inf)
	case 2:
		return 0
	case 3:
		return graph.Inf - 1 - rng.Int64N(8)
	case 4:
		return -1 - rng.Int64N(100)
	default:
		return rng.Int64N(100)
	}
}

// minPlusBlocks returns an r x m and an m x c block of minPlusEntry
// values: ragged, as Mul3D's blocks are when n is not a cube.
func minPlusBlocks(r, m, c int, seed uint64) (a, b [][]int64) {
	rng := rand.New(rand.NewPCG(seed, uint64(r*10000+m*100+c)))
	fill := func(rows, cols int) [][]int64 {
		blk := make([][]int64, rows)
		for i := range blk {
			blk[i] = make([]int64, cols)
			for j := range blk[i] {
				blk[i][j] = minPlusEntry(rng)
			}
		}
		return blk
	}
	return fill(r, m), fill(m, c)
}

// checkMinPlusKernel holds the (min, +) kernel to the generic loop on
// one pair of blocks.
func checkMinPlusKernel(t *testing.T, a, b [][]int64) {
	t.Helper()
	got := MulLocal(MinPlus{}, a, b)
	want := MulLocal(genericMinPlus{}, a, b)
	if !matEqual(got, want) {
		t.Fatalf("%dx%d (x) %dx%d: kernel %v, generic loop %v", len(a), len(b), len(b), len(b[0]), got, want)
	}
}

// TestMulLocalMinPlusMatchesGeneric is the equivalence property of
// MulLocal's (min, +) kernel and the generic semiring loop, over square
// and ragged block shapes mixing Inf, values above Inf and weights whose
// sums pass Inf.
func TestMulLocalMinPlusMatchesGeneric(t *testing.T) {
	for _, shape := range [][3]int{{1, 1, 1}, {3, 3, 3}, {6, 6, 6}, {2, 5, 3}, {7, 1, 4}, {4, 9, 1}, {16, 16, 16}} {
		for seed := uint64(0); seed < 8; seed++ {
			a, b := minPlusBlocks(shape[0], shape[1], shape[2], seed)
			checkMinPlusKernel(t, a, b)
		}
	}
}

func FuzzMulLocalMinPlus(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(3), uint8(3))
	f.Add(uint64(2), uint8(1), uint8(7), uint8(2))
	f.Add(uint64(3), uint8(9), uint8(1), uint8(5))
	f.Fuzz(func(t *testing.T, seed uint64, rawR, rawM, rawC uint8) {
		r, m, c := 1+int(rawR)%12, 1+int(rawM)%12, 1+int(rawC)%12
		a, b := minPlusBlocks(r, m, c, seed)
		checkMinPlusKernel(t, a, b)
	})
}

// BenchmarkMulLocal times the local block product Mul3D runs at each
// worker, over (min, +) at APSP's n = 216 block size (q = 6, 36 x 36)
// and a larger block, kernel against the generic loop.
func BenchmarkMulLocal(b *testing.B) {
	for _, n := range []int{36, 216} {
		a := randomMatrix(n, 100, 0.5, MinPlus{}, uint64(n))
		for _, s := range []Semiring{MinPlus{}, genericMinPlus{}} {
			b.Run(fmt.Sprintf("%s/n=%d", s.Name(), n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					MulLocal(s, a, a)
				}
			})
		}
	}
}

// BenchmarkMul3D times one (min, +) Mul3D at Figure 1's APSP shape:
// n = 216, dense rows (every entry finite), 8 words per pair, on the
// default backend, and reports the product's model cost beside it.
func BenchmarkMul3D(b *testing.B) {
	const n = 216
	a := randomMatrix(n, 100, 1, MinPlus{}, 216)
	b.ReportAllocs()
	b.ResetTimer()
	var res *clique.Result
	for i := 0; i < b.N; i++ {
		_, res = runMulOn(b, clique.DefaultBackend, n, 8, Mul3D, MinPlus{}, a, a)
	}
	b.ReportMetric(float64(res.Stats.Rounds), "rounds")
	b.ReportMetric(float64(res.Stats.WordsSent), "words")
}
