package bitvec

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

func randMatrix(rows, bitCount int, density float64, rng *rand.Rand) *Matrix {
	m := NewMatrix(rows, bitCount)
	for i := 0; i < rows; i++ {
		for j := 0; j < bitCount; j++ {
			if rng.Float64() < density {
				m.Row(i).Set(j)
			}
		}
	}
	return m
}

func matricesEqual(a, b *Matrix) bool {
	if a.R != b.R || a.Bits != b.Bits {
		return false
	}
	for i := 0; i < a.R; i++ {
		if !a.Row(i).Equal(b.Row(i)) {
			return false
		}
	}
	return true
}

// TestMulBlockedMatchesRowKernel forces shapes past mulBlockWords so
// the banded path runs, and checks bit-identity with the per-row
// kernel (the pre-blocking implementation).
func TestMulBlockedMatchesRowKernel(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for _, n := range []int{65, 130, 700} {
		a := randMatrix(n, n, 0.3, rng)
		b := randMatrix(n, n, 0.3, rng)
		want := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			MulRowInto(a.Row(i), b, want.Row(i))
		}
		got := NewMatrix(n, n)
		mulBlocked(a, b, got) // call the banded path directly, whatever the cutover
		if !matricesEqual(got, want) {
			t.Fatalf("mulBlocked(n=%d) diverges from the row kernel", n)
		}
		got.Zero()
		MulInto(a, b, got)
		if !matricesEqual(got, want) {
			t.Fatalf("MulInto(n=%d) diverges from the row kernel", n)
		}
	}
}

func BenchmarkMulInto(b *testing.B) {
	for _, n := range []int{256, 1024} {
		rng := rand.New(rand.NewPCG(13, uint64(n)))
		am := randMatrix(n, n, 0.3, rng)
		bm := randMatrix(n, n, 0.3, rng)
		cm := NewMatrix(n, n)
		b.Run(fmt.Sprintf("blocked/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MulInto(am, bm, cm)
			}
		})
		b.Run(fmt.Sprintf("rowsweep/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for r := 0; r < n; r++ {
					MulRowInto(am.Row(r), bm, cm.Row(r))
				}
			}
		})
	}
}
