package mst

import (
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/clique"
)

// checkSortEdges sorts a copy of es with sortEdges (with and without
// scratch) and requires the result to equal slices.SortFunc with
// compareEdges, edge for edge.
func checkSortEdges(t *testing.T, es []Edge, n int, tag string) {
	t.Helper()
	want := slices.Clone(es)
	slices.SortFunc(want, compareEdges)
	for _, keys := range [][]uint64{nil, make([]uint64, len(es))} {
		got := slices.Clone(es)
		sortEdges(got, n, keys)
		if !slices.Equal(got, want) {
			t.Fatalf("%s (n=%d, scratch %d): sortEdges %v, SortFunc %v", tag, n, len(keys), got, want)
		}
	}
}

// packLimit is the first weight the packed key cannot hold at order n.
func packLimit(n int) int64 {
	return int64(1) << (64 - 2*bits.Len(uint(n)))
}

// TestSortEdgesMatchesSortFunc is the sortEdges ≡ compareEdges
// property over random edge lists: the packed path (weights in range,
// up to the largest packable weight), and both fallbacks (a negative
// weight, a weight at or past 2^(64−2b)), at small orders, the sweep
// sizes and clique.MaxN.
func TestSortEdgesMatchesSortFunc(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 29))
	for _, n := range []int{1, 2, 3, 7, 64, 512, 1000, 1024, clique.MaxN} {
		limit := packLimit(n)
		for trial := 0; trial < 40; trial++ {
			es := make([]Edge, rng.IntN(300))
			for i := range es {
				u, v := rng.IntN(n), rng.IntN(n)
				if u > v && trial%2 == 0 {
					u, v = v, u // half the lists are normalized forests' shape
				}
				es[i] = Edge{U: u, V: v, W: rng.Int64N(min(limit, 1+int64(trial)*8))}
			}
			checkSortEdges(t, es, n, "packed")
			if len(es) == 0 {
				continue
			}
			at := rng.IntN(len(es))
			hi := slices.Clone(es)
			hi[at].W = limit - 1 // still packs
			checkSortEdges(t, hi, n, "largest packable weight")
			hi[at].W = limit
			checkSortEdges(t, hi, n, "weight at 2^(64-2b)")
			hi[at].W = math.MaxInt64
			checkSortEdges(t, hi, n, "max weight")
			neg := slices.Clone(es)
			neg[at].W = -1 - rng.Int64N(5)
			checkSortEdges(t, neg, n, "negative weight")
		}
	}
}

// FuzzSortEdges checks sortEdges against slices.SortFunc on arbitrary
// edge lists. The first two bytes pick n in 1..MaxN; every following
// 10 bytes are one edge: u and v (2 bytes each, reduced mod n) and a
// signed 48-bit weight whose top byte also selects a shift, so the
// corpus reaches negative weights, the packed range's edge and past it.
func FuzzSortEdges(f *testing.F) {
	f.Add([]byte{0, 16, 0, 1, 0, 2, 5, 0, 0, 0, 0, 0, 0, 2, 0, 1, 5, 0, 0, 0, 0, 0})
	f.Add([]byte{255, 255, 1, 0, 0, 1, 255, 255, 255, 255, 255, 255, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0})
	f.Add([]byte{3, 255, 0, 1, 0, 2, 0, 0, 0, 0, 0, 40, 0, 2, 0, 1, 1, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 1 + int(binary.BigEndian.Uint16(data))%clique.MaxN
		var es []Edge
		for b := data[2:]; len(b) >= 10; b = b[10:] {
			u := int(binary.BigEndian.Uint16(b)) % n
			v := int(binary.BigEndian.Uint16(b[2:])) % n
			raw := int64(binary.BigEndian.Uint64(append([]byte{0, 0}, b[4:10]...))<<16) >> 16
			w := raw << (b[9] % 24) // reaches past 2^(64−2b) at every n
			es = append(es, Edge{U: u, V: v, W: w})
		}
		checkSortEdges(t, es, n, "fuzz")
	})
}
