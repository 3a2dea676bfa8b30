package mst

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/clique"
	"repro/internal/graph"
)

// TestMSTBatchRunsGetOwnForests: a batch of Find, SketchFind or
// SparseFind runs over different instances gives every run its own
// Kruskal forest, on every backend, so a shared merge state never
// leaks from one run into another.
func TestMSTBatchRunsGetOwnForests(t *testing.T) {
	const n = 24
	seeds := []uint64{1, 2, 3, 4}
	graphs := make([]*graph.Weighted, len(seeds))
	for i, seed := range seeds {
		graphs[i] = graph.GnpWeighted(n, 0.25, 40, false, seed)
	}
	algs := []struct {
		name string
		wpp  int
		find func(nd clique.Endpoint, row []int64, seed uint64) []Edge
	}{
		{"Find", 1, func(nd clique.Endpoint, row []int64, _ uint64) []Edge { return Find(nd, row) }},
		{"SketchFind", 32, func(nd clique.Endpoint, row []int64, seed uint64) []Edge {
			f, _ := SketchFind(nd, row, seed)
			return f
		}},
		{"SparseFind", 8, func(nd clique.Endpoint, row []int64, seed uint64) []Edge {
			f, _ := SparseFind(nd, row, seed)
			return f
		}},
	}
	for _, alg := range algs {
		for _, backend := range clique.Backends() {
			out := make([][][]Edge, len(seeds))
			programs := make([]clique.NodeFunc, len(seeds))
			for r, seed := range seeds {
				out[r] = make([][]Edge, n)
				programs[r] = func(nd *clique.Node) {
					out[r][nd.ID()] = alg.find(nd, graphs[r].W[nd.ID()], seed)
				}
			}
			_, errs := clique.RunBatch(clique.Config{N: n, WordsPerPair: alg.wpp, Backend: backend}, programs)
			for r := range seeds {
				if errs[r] != nil {
					t.Fatalf("%s/%s run %d: %v", alg.name, backend, r, errs[r])
				}
				want := KruskalForest(graphs[r])
				for v, got := range out[r] {
					if alg.name == "SparseFind" && v != 0 {
						continue // only the coordinator returns the forest
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%s/%s run %d node %d: forest %v, Kruskal %v", alg.name, backend, r, v, got, want)
					}
				}
			}
		}
	}
}

// TestMSTCallerOwnsForest: the forest Find and SketchFind return is the
// caller's own copy. Node 0 overwrites its forest before a barrier, and
// every other node's forest must still be Kruskal's after it.
func TestMSTCallerOwnsForest(t *testing.T) {
	const n = 32
	g := graph.GnpWeighted(n, 0.3, 50, false, 5)
	want := KruskalForest(g)
	finds := map[string]func(nd clique.Endpoint, row []int64) []Edge{
		"Find": Find,
		"SketchFind": func(nd clique.Endpoint, row []int64) []Edge {
			f, _ := SketchFind(nd, row, 5)
			return f
		},
	}
	for name, find := range finds {
		for _, backend := range clique.Backends() {
			_, err := clique.Run(clique.Config{N: n, WordsPerPair: 32, Backend: backend}, func(nd *clique.Node) {
				forest := find(nd, g.W[nd.ID()])
				if nd.ID() == 0 {
					for i := range forest {
						forest[i] = Edge{U: -7, V: -7, W: -7}
					}
				}
				nd.Tick()
				if nd.ID() != 0 && !slices.Equal(forest, want) {
					nd.Fail("forest %v after node 0 overwrote its own, want %v", forest, want)
				}
			})
			if err != nil {
				t.Errorf("%s/%s: %v", name, backend, err)
			}
		}
	}
}

// TestFindMergeStepRunsOncePerPhase: on lockstep, a Find run calls the
// Borůvka merge step once per executed phase; on the goroutine
// reference backend every node calls it, n times per phase.
func TestFindMergeStepRunsOncePerPhase(t *testing.T) {
	const n = 32
	g := graph.GnpWeighted(n, 0.3, 50, false, 8)
	var calls atomic.Int64
	orig := mergePhase
	mergePhase = func(m *boruvkaMerge, ann []uint64) *boruvkaMerge {
		calls.Add(1)
		return orig(m, ann)
	}
	t.Cleanup(func() { mergePhase = orig })
	for _, backend := range clique.Backends() {
		calls.Store(0)
		res, err := clique.Run(clique.Config{N: n, Backend: backend}, func(nd *clique.Node) {
			Find(nd, g.W[nd.ID()])
		})
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		phases := int64(res.Stats.Rounds / 2) // two broadcast rounds a phase
		want := phases
		if backend == "goroutine" {
			want = n * phases
		}
		if c := calls.Load(); phases < 2 || c != want {
			t.Errorf("%s: merge step ran %d times over %d phases, want %d", backend, c, phases, want)
		}
	}
}

// minUnmarkedRescan is the O(n) reference for incidentCursor.next: the
// (W, U, V)-least edge from me to a far end that is not marked.
func minUnmarkedRescan(me int, wRow []int64, internal []bool) (Edge, bool) {
	best := Edge{U: -1, W: graph.Inf}
	for u := range wRow {
		if u == me || internal[u] || wRow[u] >= graph.Inf {
			continue
		}
		if cand := (Edge{U: me, V: u, W: wRow[u]}); better(cand, best) {
			best = cand
		}
	}
	return best, best.U >= 0
}

// checkCursor marks far ends in the given order, one at a time, and
// requires the cursor and the rescan to agree before every mark and
// after the last.
func checkCursor(t *testing.T, me int, wRow []int64, marks []int) {
	t.Helper()
	c := newIncidentCursor(me, wRow)
	internal := make([]bool, len(wRow))
	for step := 0; ; step++ {
		got, gotOK := c.next(internal)
		want, wantOK := minUnmarkedRescan(me, wRow, internal)
		if got != want || gotOK != wantOK {
			t.Fatalf("me=%d row=%v step %d: cursor %v %v, rescan %v %v", me, wRow, step, got, gotOK, want, wantOK)
		}
		if step == len(marks) {
			return
		}
		internal[marks[step]] = true
	}
}

// TestIncidentCursorMatchesRescan: over random rows, with ties,
// non-edges, negative and oversized weights (the comparator path),
// and random growing mark sets that sometimes mark the current
// minimum, the cursor returns exactly what the rescan returns.
func TestIncidentCursorMatchesRescan(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 3))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.IntN(70)
		me := rng.IntN(n)
		wRow := make([]int64, n)
		maxW := int64(1 + rng.IntN(8))
		wide := rng.IntN(4) == 0
		for u := range wRow {
			switch {
			case u == me || rng.IntN(4) == 0:
				wRow[u] = graph.Inf
			case wide && rng.IntN(6) == 0:
				wRow[u] = []int64{-3, math.MinInt64, graph.Inf - 1, 1 << 60}[rng.IntN(4)]
			default:
				wRow[u] = rng.Int64N(maxW)
			}
		}
		marks := rng.Perm(n)[:rng.IntN(n+1)]
		checkCursor(t, me, wRow, marks)
	}
}

// FuzzIncidentCursor: the first byte picks n in 1..64 and the second
// me; then each 9-byte group is one far end's weight (a flag byte, whose
// low bits choose a small weight, a non-edge or the 8 raw bytes, which
// reach negative and oversized weights and so the comparator path)
// until n weights are read; the remaining bytes are the mark order.
func FuzzIncidentCursor(f *testing.F) {
	f.Add([]byte{4, 1, 0, 0, 0, 0, 0, 0, 0, 0, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 2, 1, 0})
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 5, 0, 0, 0, 0, 0, 0, 0, 2, 1})
	f.Add([]byte{8, 7, 2, 9, 0, 0, 0, 0, 0, 0, 0, 0x40})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 1 + int(data[0])%64
		me := int(data[1]) % n
		data = data[2:]
		wRow := make([]int64, n)
		for u := range wRow {
			wRow[u] = graph.Inf
			if len(data) < 9 {
				continue
			}
			flag, raw := data[0], data[1:9]
			data = data[9:]
			switch flag % 4 {
			case 0, 1:
				wRow[u] = int64(raw[0] % 4)
			case 2:
				wRow[u] = int64(binary.LittleEndian.Uint64(raw))
			}
		}
		wRow[me] = graph.Inf
		var marks []int
		seen := make([]bool, n)
		for _, b := range data {
			if u := int(b) % n; !seen[u] {
				seen[u] = true
				marks = append(marks, u)
			}
		}
		checkCursor(t, me, wRow, marks)
	})
}
