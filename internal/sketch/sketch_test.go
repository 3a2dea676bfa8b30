package sketch

import (
	"math/rand/v2"
	"testing"

	"repro/internal/graph"
)

// randomEdgeSet draws k distinct edges of an n-clique.
func randomEdgeSet(n, k int, seed uint64) map[[2]int]bool {
	r := rand.New(rand.NewPCG(seed, 77))
	set := make(map[[2]int]bool)
	for len(set) < k {
		u, v := r.IntN(n), r.IntN(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		set[[2]int{u, v}] = true
	}
	return set
}

func sketchOf(p Params, set map[[2]int]bool) *Sketch {
	s := New(p)
	for e := range set {
		s.Toggle(e[0], e[1])
	}
	return s
}

// symDiff returns A Δ B.
func symDiff(a, b map[[2]int]bool) map[[2]int]bool {
	out := make(map[[2]int]bool)
	for e := range a {
		if !b[e] {
			out[e] = true
		}
	}
	for e := range b {
		if !a[e] {
			out[e] = true
		}
	}
	return out
}

// TestLinearity pins the package's core property bit-identically:
// Merge(S(A), S(B)) has exactly the same packed row as S(A Δ B).
func TestLinearity(t *testing.T) {
	for _, tc := range []struct {
		n, ka, kb int
		seed      uint64
	}{
		{8, 3, 3, 1},
		{16, 10, 10, 2},
		{32, 40, 25, 3},
		{64, 200, 200, 4},
		{64, 1, 0, 5},
		{64, 0, 0, 6},
	} {
		p := DefaultParams(tc.n, tc.seed)
		a := randomEdgeSet(tc.n, tc.ka, tc.seed*10+1)
		b := randomEdgeSet(tc.n, tc.kb, tc.seed*10+2)
		sa, sb := sketchOf(p, a), sketchOf(p, b)
		sa.Merge(sb)
		direct := sketchOf(p, symDiff(a, b))
		if !sa.Row.Equal(direct.Row) {
			t.Errorf("n=%d ka=%d kb=%d seed=%d: Merge(S(A),S(B)) != S(A Δ B) bit-for-bit",
				tc.n, tc.ka, tc.kb, tc.seed)
		}
	}
}

// TestToggleCancels: XOR insertion is its own inverse, so re-toggling
// every edge empties the sketch exactly.
func TestToggleCancels(t *testing.T) {
	p := DefaultParams(32, 9)
	set := randomEdgeSet(32, 60, 9)
	s := sketchOf(p, set)
	if s.Empty() {
		t.Fatal("sketch of a nonempty set is empty")
	}
	for e := range set {
		s.Toggle(e[0], e[1])
	}
	if !s.Empty() {
		t.Fatal("sketch not empty after cancelling every edge")
	}
}

// TestSampleValidity: whatever Sample returns must be in the sketched
// set — across sizes and many seeds.
func TestSampleValidity(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		n := 8 + int(seed%3)*28
		k := 1 + int(seed)%40
		if maxK := n * (n - 1) / 2; k > maxK {
			k = maxK
		}
		set := randomEdgeSet(n, k, seed)
		s := sketchOf(DefaultParams(n, seed), set)
		u, v, ok := s.Sample()
		if !ok {
			continue // Monte Carlo miss; rate is bounded below
		}
		if !set[[2]int{u, v}] {
			t.Fatalf("n=%d k=%d seed=%d: Sample returned (%d,%d), not in the set", n, k, seed, u, v)
		}
	}
}

// TestSampleSuccessRate: empirical lower bound on ℓ₀-sample recovery
// over many seeds and set sizes. The AGM analysis gives a constant
// success probability per repetition; with DefaultParams' two
// repetitions the observed rate is well above 80%, and a genuine
// regression (broken level hash, wrong cell scan) collapses it.
func TestSampleSuccessRate(t *testing.T) {
	const trials = 300
	hits := 0
	for seed := uint64(0); seed < trials; seed++ {
		n := 16 << (seed % 3)
		k := 1 + int(seed)%(n*2)
		set := randomEdgeSet(n, k, seed+1000)
		s := sketchOf(DefaultParams(n, seed), set)
		if _, _, ok := s.Sample(); ok {
			hits++
		}
	}
	if rate := float64(hits) / trials; rate < 0.80 {
		t.Fatalf("Sample succeeded on %d/%d nonempty sets (%.2f), want >= 0.80", hits, trials, rate)
	}
}

// TestEmptyNeverSamples: the empty sketch must not hallucinate.
func TestEmptyNeverSamples(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		s := New(DefaultParams(32, seed))
		if !s.Empty() {
			t.Fatal("fresh sketch not Empty")
		}
		if _, _, ok := s.Sample(); ok {
			t.Fatalf("seed %d: Sample ok on the empty sketch", seed)
		}
	}
}

// TestCutSketchCancellation is the AGM mechanism the MST algorithms
// use: XOR-merging the full incidence sketches of a vertex group
// cancels internal edges and leaves exactly the cut.
func TestCutSketchCancellation(t *testing.T) {
	const n = 24
	g := graph.GnpWeighted(n, 0.3, 1000, false, 5)
	p := DefaultParams(n, 42)
	// Group = vertices 0..n/2-1. Merge their incidence sketches.
	merged := New(p)
	for v := 0; v < n/2; v++ {
		s := New(p)
		for u := 0; u < n; u++ {
			if u != v && g.HasEdge(v, u) {
				s.Toggle(v, u)
			}
		}
		merged.Merge(s)
	}
	// Reference: sketch of the cut edges only.
	cut := make(map[[2]int]bool)
	for v := 0; v < n/2; v++ {
		for u := n / 2; u < n; u++ {
			if g.HasEdge(v, u) {
				cut[[2]int{v, u}] = true
			}
		}
	}
	if !merged.Row.Equal(sketchOf(p, cut).Row) {
		t.Fatal("merged incidence sketches != cut sketch")
	}
	if u, v, ok := merged.Sample(); ok {
		if !cut[[2]int{min(u, v), max(u, v)}] {
			t.Fatalf("cut sample (%d,%d) is not a cut edge", u, v)
		}
	} else if len(cut) > 0 {
		t.Log("cut sample missed (Monte Carlo); linearity still verified")
	}
}

// TestPairHashUniformity sanity-checks the family: means and level
// depths roughly match a uniform 61-bit value.
func TestPairHashUniformity(t *testing.T) {
	r := rng(7)
	h := newPairHash(r)
	const samples = 1 << 14
	deep := 0
	for x := uint64(1); x <= samples; x++ {
		if level(h.apply(x)) >= 4 {
			deep++
		}
	}
	// P(level >= 4) = 2^-4; allow generous slack.
	want := samples / 16
	if deep < want/2 || deep > want*2 {
		t.Fatalf("level >= 4 on %d/%d values, want about %d", deep, samples, want)
	}
}

// FuzzSketchLinearity fuzzes the core linearity and validity
// properties over arbitrary toggle sequences: the fuzzer controls the
// vertex count, seed, and two edge streams (with duplicates, which
// exercise cancellation).
func FuzzSketchLinearity(f *testing.F) {
	f.Add(uint8(16), uint64(1), []byte{1, 2, 3, 4, 1, 2}, []byte{5, 6})
	f.Add(uint8(8), uint64(9), []byte{}, []byte{0, 1, 0, 1})
	f.Fuzz(func(t *testing.T, rawN uint8, seed uint64, streamA, streamB []byte) {
		n := 4 + int(rawN)%61
		decode := func(stream []byte) map[[2]int]bool {
			set := make(map[[2]int]bool)
			for i := 0; i+1 < len(stream); i += 2 {
				u, v := int(stream[i])%n, int(stream[i+1])%n
				if u == v {
					continue
				}
				if u > v {
					u, v = v, u
				}
				// Toggle semantics: duplicates cancel.
				if set[[2]int{u, v}] {
					delete(set, [2]int{u, v})
				} else {
					set[[2]int{u, v}] = true
				}
			}
			return set
		}
		toggleAll := func(s *Sketch, stream []byte) {
			for i := 0; i+1 < len(stream); i += 2 {
				u, v := int(stream[i])%n, int(stream[i+1])%n
				if u != v {
					s.Toggle(u, v)
				}
			}
		}
		p := DefaultParams(n, seed)
		sa, sb := New(p), New(p)
		toggleAll(sa, streamA)
		toggleAll(sb, streamB)
		a, b := decode(streamA), decode(streamB)
		sa.Merge(sb)
		want := sketchOf(p, symDiff(a, b))
		if !sa.Row.Equal(want.Row) {
			t.Fatal("Merge != sketch of symmetric difference")
		}
		if len(symDiff(a, b)) == 0 && !sa.Empty() {
			t.Fatal("empty symmetric difference but nonempty merged sketch")
		}
		if u, v, ok := sa.Sample(); ok {
			if u > v {
				u, v = v, u
			}
			if !symDiff(a, b)[[2]int{u, v}] {
				t.Fatalf("Sample returned (%d,%d), not in A Δ B", u, v)
			}
		}
	})
}
