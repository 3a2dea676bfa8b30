package graph

import (
	"fmt"
	"testing"
)

// isDominatingSetNaive is the []bool marking rule IsDominatingSet
// replaced, kept as its reference.
func isDominatingSetNaive(g *Graph, set []int) bool {
	dominated := make([]bool, g.N)
	for _, u := range set {
		dominated[u] = true
		g.Neighbors(u, func(v int) { dominated[v] = true })
	}
	for _, d := range dominated {
		if !d {
			return false
		}
	}
	return true
}

func TestIsDominatingSetMatchesNaive(t *testing.T) {
	// Orders straddle word boundaries so the last word's mask matters.
	for _, n := range []int{1, 5, 63, 64, 65, 130} {
		for seed := uint64(0); seed < 8; seed++ {
			g := Gnp(n, 0.05+0.1*float64(seed), seed)
			for size := 1; size <= 4 && size <= n; size++ {
				set := make([]int, size)
				for i := range set {
					set[i] = int((seed*7919 + uint64(i)*104729) % uint64(n))
				}
				if got, want := IsDominatingSet(g, set), isDominatingSetNaive(g, set); got != want {
					t.Errorf("n=%d seed=%d set=%v: IsDominatingSet = %v, naive = %v", n, seed, set, got, want)
				}
			}
		}
	}
	// The all-vertices set always dominates; the empty set only the
	// empty graph.
	g := Gnp(70, 0.1, 3)
	all := make([]int, g.N)
	for v := range all {
		all[v] = v
	}
	if !IsDominatingSet(g, all) || IsDominatingSet(g, nil) || !IsDominatingSet(New(0), nil) {
		t.Error("IsDominatingSet wrong on the trivial sets")
	}
}

func TestIsDominatingSetAllocatesNothing(t *testing.T) {
	g, planted := PlantedDominatingSet(216, 3, 0.1, 216)
	miss := []int{0, 1, 2}
	if !IsDominatingSet(g, planted) {
		t.Fatal("planted set does not dominate")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		IsDominatingSet(g, planted)
		IsDominatingSet(g, miss)
	}); allocs != 0 {
		t.Errorf("IsDominatingSet allocated %.1f objects per call pair, want 0", allocs)
	}
}

// maxIndependentSetBrute is the exhaustive reference for
// MaxIndependentSetSize on up to 30 vertices: the largest independent
// subset mask.
func maxIndependentSetBrute(g *Graph) int {
	adj := make([]uint32, g.N)
	g.Edges(func(u, v int) {
		adj[u] |= 1 << v
		adj[v] |= 1 << u
	})
	best := 0
	for mask := uint32(0); mask < 1<<g.N; mask++ {
		size, ok := 0, true
		for v := 0; v < g.N && ok; v++ {
			if mask&(1<<v) != 0 {
				size++
				ok = adj[v]&mask == 0
			}
		}
		if ok && size > best {
			best = size
		}
	}
	return best
}

func TestMaxIndependentSetMatchesSubsetSearch(t *testing.T) {
	for _, p := range []float64{0.1, 0.5, 0.9} {
		for n := 0; n <= 14; n++ {
			for seed := uint64(0); seed < 3; seed++ {
				g := Gnp(n, p, seed*100+uint64(n))
				want := 0
				for HasIndependentSetOfSize(g, want+1) {
					want++
				}
				if got := MaxIndependentSetSize(g); got != want {
					t.Errorf("p=%.1f n=%d seed=%d: MaxIndependentSetSize = %d, largest k with an independent set = %d\n%v",
						p, n, seed, got, want, g)
				}
			}
		}
	}
}

// FuzzMaxIndependentSet decodes the input as a graph on at most 14
// vertices (first byte: order; the remaining bits, in order, fill the
// upper triangle of the adjacency matrix) and checks the branch and
// bound against exhaustive subset search.
func FuzzMaxIndependentSet(f *testing.F) {
	f.Add([]byte{5, 0b10110, 0xff})
	f.Add([]byte{14, 0x00, 0x00})
	f.Add([]byte{13, 0xa5, 0x5a, 0x3c, 0xc3, 0x0f, 0xf0, 0x99, 0x66, 0x12, 0x34, 0x56})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		n := 0
		if len(data) > 0 {
			n = int(data[0]) % 15
			data = data[1:]
		}
		g := New(n)
		bit := 0
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if bit/8 < len(data) && data[bit/8]&(1<<(bit%8)) != 0 {
					g.AddEdge(u, v)
				}
				bit++
			}
		}
		if got, want := MaxIndependentSetSize(g), maxIndependentSetBrute(g); got != want {
			t.Fatalf("MaxIndependentSetSize = %d, brute force = %d on %v", got, want, g)
		}
	})
}

// BenchmarkMaxIndependentSetSize times the local solve of Figure 1's
// maxis workload at its full size: G(216, 0.92), gathered whole.
func BenchmarkMaxIndependentSetSize(b *testing.B) {
	g := Gnp(216, 0.92, 216)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if MaxIndependentSetSize(g) < 1 {
			b.Fatal("empty independent set")
		}
	}
}

func ExampleMaxIndependentSetSize() {
	fmt.Println(MaxIndependentSetSize(Cycle(7)), MaxIndependentSetSize(Complete(5)))
	// Output: 3 1
}
