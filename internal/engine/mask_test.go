package engine

import (
	"math/rand/v2"
	"testing"
)

// TestTranspose64 pins the activity mask's tile kernel against per-bit
// extraction, including asymmetric patterns that expose mirrored shift
// directions.
func TestTranspose64(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 9))
	cases := [][64]uint64{{}, {0: 1}, {63: 1 << 63}, {0: 1 << 63, 63: 1}}
	var dense [64]uint64
	for i := range dense {
		dense[i] = rng.Uint64()
	}
	cases = append(cases, dense)
	for ci, in := range cases {
		tile := in
		transpose64(&tile)
		for r := 0; r < 64; r++ {
			for c := 0; c < 64; c++ {
				want := (in[c]>>uint(r))&1 != 0
				got := (tile[r]>>uint(c))&1 != 0
				if got != want {
					t.Fatalf("case %d: transposed[%d] bit %d = %v, want %v", ci, r, c, got, want)
				}
			}
		}
	}
}
