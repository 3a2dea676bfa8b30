package vcover

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/clique"
	"repro/internal/comm"
	"repro/internal/graph"
)

func runFind(t *testing.T, g *graph.Graph, k int) (Result, *clique.Result) {
	t.Helper()
	out := make([]Result, g.N)
	res, err := clique.Run(clique.Config{N: g.N}, func(nd *clique.Node) {
		out[nd.ID()] = Find(nd, g.Row(nd.ID()), k)
	})
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v < g.N; v++ {
		if out[v].Found != out[0].Found || len(out[v].Cover) != len(out[0].Cover) {
			t.Fatalf("nodes disagree: %+v vs %+v", out[v], out[0])
		}
		for i := range out[v].Cover {
			if out[v].Cover[i] != out[0].Cover[i] {
				t.Fatalf("nodes disagree on cover")
			}
		}
	}
	return out[0], res
}

func TestFindMatchesOracle(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		g := graph.Gnp(14, 0.25, seed+30)
		opt := graph.MinVertexCoverSize(g)
		for _, k := range []int{opt - 1, opt, opt + 2} {
			if k < 0 {
				continue
			}
			got, _ := runFind(t, g, k)
			want := k >= opt
			if got.Found != want {
				t.Errorf("seed %d k=%d (opt %d): Found = %v", seed, k, opt, got.Found)
			}
			if got.Found {
				if len(got.Cover) > k {
					t.Errorf("seed %d: cover size %d > budget %d", seed, len(got.Cover), k)
				}
				if !graph.IsVertexCover(g, got.Cover) {
					t.Errorf("seed %d: returned set is not a cover", seed)
				}
			}
		}
	}
}

func TestPlantedCover(t *testing.T) {
	g, _ := graph.PlantedVertexCover(24, 4, 0.5, 3)
	got, _ := runFind(t, g, 4)
	if !got.Found {
		t.Fatal("planted 4-cover not found")
	}
	if !graph.IsVertexCover(g, got.Cover) {
		t.Fatal("witness is not a cover")
	}
}

func TestHighDegreeKernel(t *testing.T) {
	// A star K_{1,9} with k=1: the centre has degree 9 > 1 and is
	// forced; the kernel is empty.
	g := graph.CompleteBipartite(1, 9)
	got, _ := runFind(t, g, 1)
	if !got.Found || len(got.Cover) != 1 || got.Cover[0] != 0 {
		t.Fatalf("star cover: %+v", got)
	}
	if got.KernelSize != 1 {
		t.Errorf("kernel size = %d, want 1", got.KernelSize)
	}
}

func TestOverfullKernelRejects(t *testing.T) {
	// K8 with k=2: every vertex has degree 7 > 2, so 8 > 2 vertices are
	// forced and the algorithm must reject.
	g := graph.Complete(8)
	got, _ := runFind(t, g, 2)
	if got.Found {
		t.Error("K8 accepted with k=2")
	}
	if got.KernelSize != 8 {
		t.Errorf("kernel size = %d, want 8", got.KernelSize)
	}
}

func TestEmptyGraph(t *testing.T) {
	g := graph.New(7)
	got, _ := runFind(t, g, 0)
	if !got.Found || len(got.Cover) != 0 {
		t.Errorf("empty graph k=0: %+v", got)
	}
}

func TestRoundsDependOnlyOnK(t *testing.T) {
	// Theorem 11's headline is rounds = 1 + k regardless of n; the
	// packed main phase improves that to exactly
	// 1 + min(k, ceil(ceil(n/64)/wpp)) — never more than 1 + k, and
	// still independent of the input graph (only n, k, wpp matter).
	want := func(n, k int) int {
		packed := (n + 63) / 64 // wordsPerPair is 1 in runFind
		if packed < k {
			return 1 + packed
		}
		return 1 + k
	}
	for _, n := range []int{10, 20, 40, 80, 140} {
		g, _ := graph.PlantedVertexCover(n, 3, 0.4, uint64(n))
		_, res := runFind(t, g, 3)
		if res.Stats.Rounds != want(n, 3) {
			t.Errorf("n=%d: rounds = %d, want exactly %d", n, res.Stats.Rounds, want(n, 3))
		}
		if res.Stats.Rounds > 1+3 {
			t.Errorf("n=%d: rounds = %d exceed Theorem 11's 1+k", n, res.Stats.Rounds)
		}
	}
	// Below the packed crossover the classic shape still grows linearly
	// in k; above it the packed broadcast caps the cost.
	g, _ := graph.PlantedVertexCover(30, 3, 0.4, 9)
	for _, k := range []int{1, 2, 3, 6, 12} {
		_, res := runFind(t, g, k)
		if res.Stats.Rounds != want(30, k) {
			t.Errorf("k=%d: rounds = %d, want %d", k, res.Stats.Rounds, want(30, k))
		}
	}
}

func TestBussLemmaHolds(t *testing.T) {
	// Lemma 12: in every yes-instance, each vertex of degree > k is in
	// the returned cover.
	for seed := uint64(0); seed < 4; seed++ {
		g, _ := graph.PlantedVertexCover(18, 4, 0.6, seed)
		got, _ := runFind(t, g, 4)
		if !got.Found {
			continue
		}
		inCover := make(map[int]bool)
		for _, v := range got.Cover {
			inCover[v] = true
		}
		for v := 0; v < g.N; v++ {
			if g.Degree(v) > 4 && !inCover[v] {
				t.Errorf("seed %d: degree-%d vertex %d missing from cover", seed, g.Degree(v), v)
			}
		}
	}
}

// TestCompactKernelMatchesNVertexKernel pins Find's kernel over its
// own endpoints to findNVertexKernel, the construction over all n
// vertices it replaced: the same Result at every node, across seeds,
// yes- and no-instances (a kernel too big for the budget as well as
// an overfull forced set), and both main-phase shapes — packed when
// ceil(ceil(n/64)/wpp) < k, the paper's k one-word rounds otherwise.
// Every returned cover is checked with graph.IsVertexCover.
func TestCompactKernelMatchesNVertexKernel(t *testing.T) {
	shapes := map[bool]int{}
	outcomes := map[string]int{}
	for _, tc := range []struct{ n, wpp int }{{24, 1}, {70, 1}, {130, 4}, {200, 2}} {
		for seed := uint64(0); seed < 4; seed++ {
			instances := []*graph.Graph{graph.Gnp(tc.n, 1.5/float64(tc.n), seed)}
			planted, _ := graph.PlantedVertexCover(tc.n, 3, 0.3, seed)
			for i := 0; i < 3; i++ { // uncovered edges the planted cover misses
				u, v := int(seed)*7%tc.n+i+4, (int(seed)*13+5*i)%tc.n+4
				if u != v && u < tc.n && v < tc.n {
					planted.AddEdge(u, v)
				}
			}
			instances = append(instances, planted)
			for gi, g := range instances {
				for _, k := range []int{1, 2, 3, 4, 6} {
					packed := (bitvec.Words(tc.n)+tc.wpp-1)/tc.wpp < k
					shapes[packed]++
					got := make([]Result, tc.n)
					want := make([]Result, tc.n)
					_, err := clique.Run(clique.Config{N: tc.n, WordsPerPair: tc.wpp}, func(nd *clique.Node) {
						got[nd.ID()] = Find(nd, g.Row(nd.ID()), k)
						want[nd.ID()] = findNVertexKernel(nd, g.Row(nd.ID()), k)
					})
					if err != nil {
						t.Fatal(err)
					}
					tag := fmt.Sprintf("n=%d wpp=%d seed=%d graph %d k=%d", tc.n, tc.wpp, seed, gi, k)
					for v := range got {
						if !reflect.DeepEqual(got[v], want[v]) {
							t.Fatalf("%s node %d: Find %+v, n-vertex kernel %+v", tag, v, got[v], want[v])
						}
					}
					switch r := got[0]; {
					case r.Found:
						outcomes["yes"]++
						if !graph.IsVertexCover(g, r.Cover) || len(r.Cover) > k {
							t.Fatalf("%s: %v is not a cover of size <= %d", tag, r.Cover, k)
						}
					case r.KernelSize > k:
						outcomes["overfull"]++
					default:
						outcomes["kernel too big"]++
					}
				}
			}
		}
	}
	if shapes[true] == 0 || shapes[false] == 0 || len(outcomes) != 3 {
		t.Fatalf("corpus misses a case: shapes %v, outcomes %v", shapes, outcomes)
	}
}

// findNVertexKernel is Find as it was before the kernel was built over
// its own endpoints: the same rounds, then the kernel as an n-vertex
// graph. It is the reference TestCompactKernelMatchesNVertexKernel
// pins Find to.
func findNVertexKernel(nd clique.Endpoint, row graph.Bitset, k int) Result {
	n := nd.N()
	me := nd.ID()
	inC := comm.Flags(nd, row.Count() > k)
	var forced []int
	for v := 0; v < n; v++ {
		if inC[v] {
			forced = append(forced, v)
		}
	}
	var mine []int
	if !inC[me] {
		row.Each(func(u int) {
			if !inC[u] {
				mine = append(mine, u)
			}
		})
	}
	kernel := graph.New(n)
	wpp := nd.WordsPerPair()
	if (bitvec.Words(n)+wpp-1)/wpp < k {
		mask := bitvec.NewRow(n)
		for _, u := range mine {
			mask.Set(u)
		}
		for v, rowMask := range comm.BroadcastBitRows(nd, mask, n) {
			rowMask.Each(func(u int) {
				if u != v {
					kernel.AddEdge(v, u)
				}
			})
		}
	} else {
		words := make([]uint64, len(mine))
		for i, u := range mine {
			words[i] = clique.PairWord(me, u, n)
		}
		comm.BroadcastRounds(nd, words, k, func(_, _ int, w uint64) {
			a, b := clique.UnpairWord(w, n)
			kernel.AddEdge(a, b)
		})
		for _, u := range mine {
			kernel.AddEdge(me, u)
		}
	}
	if len(forced) > k {
		return Result{KernelSize: len(forced)}
	}
	rest := graph.FindVertexCover(kernel, k-len(forced))
	if rest == nil {
		return Result{KernelSize: len(forced)}
	}
	cover := append(append([]int(nil), forced...), rest...)
	sort.Ints(cover)
	return Result{Found: true, Cover: cover, KernelSize: len(forced)}
}

// BenchmarkFind runs Find once per iteration on the k-vc sweep's
// instance shape at n = 1024 (a planted 3-cover, p = 0.4, k = 3,
// wpp 1) on the lockstep backend the sweep uses.
func BenchmarkFind(b *testing.B) {
	const n, k = 1024, 3
	g, _ := graph.PlantedVertexCover(n, k, 0.4, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := clique.Run(clique.Config{N: n, Backend: "lockstep"}, func(nd *clique.Node) {
			if !Find(nd, g.Row(nd.ID()), k).Found {
				nd.Fail("planted %d-cover not found", k)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
