package workload

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/clique"
	"repro/internal/comm"
	"repro/internal/domset"
	"repro/internal/gather"
	"repro/internal/graph"
	"repro/internal/matmul"
	"repro/internal/mst"
	"repro/internal/paths"
	"repro/internal/routing"
	"repro/internal/subgraph"
	"repro/internal/vcover"
)

// Algorithm is one catalogue entry: a named node program plus
// deterministic instance generation. Unlike registry experiments,
// which fix their own instance sweep, a catalogue run is parameterised
// by the caller's (n, seed, words_per_pair).
type Algorithm struct {
	// Name is the stable request key.
	Name string `json:"name"`
	// Title is the one-line human description.
	Title string `json:"title"`
	// WPP is the per-pair word budget used when the caller leaves
	// words_per_pair at 0.
	WPP int `json:"words_per_pair"`
	// New builds the instance for (n, seed). It must be deterministic
	// in both and must not run the oracle.
	New func(n int, seed uint64) Instance `json:"-"`
}

// Make is New's node program alone. Runners go through RunBatch, which
// keeps the whole Instance; Make remains for the benchmark harness.
func (a Algorithm) Make(n int, seed uint64) clique.NodeFunc { return a.New(n, seed).Program }

// Instance is one generated instance: the node program and lazy
// access to what the run produced, read after the run. Only RunBatch
// calls Check, and only Run.Confirm the Oracle.
type Instance struct {
	// Program is the node program. Node 0 keeps its output; entries
	// with a Check keep every node's.
	Program clique.NodeFunc
	// Answer returns node 0's output.
	Answer func() any
	// Oracle computes the centralized answer that Answer must equal;
	// nil when the entry has none.
	Oracle func() any
	// Check verifies the outputs beyond Answer, without an oracle: that
	// every node agrees and that a witness is a solution. Nil when the
	// entry has none.
	Check func() error
	// Telemetry returns the run's entry-specific findings, such as node
	// 0's algorithm statistics; nil when the entry has none.
	Telemetry func() any
}

// Spec is one run of a batch: a catalogue entry and its instance seed.
// The batch's clique.Config fixes n and the word budget.
type Spec struct {
	Alg  Algorithm
	Seed uint64
}

// Run is one executed Spec: its instance, whose Answer is ready to
// read, the run's result or error (its verdict, RunBatch's), and its
// share of the batch's wall clock.
type Run struct {
	Instance
	Result *clique.Result
	Err    error
	Wall   time.Duration
}

// The typed verdicts of RunBatch (a failed Check) and Confirm.
var (
	ErrFailedCheck = errors.New("failed check")
	ErrWrongAnswer = errors.New("wrong answer")
)

// Confirm adds the oracle's verdict, opt-in as the oracle can cost more
// than the run: r.Err, else ErrWrongAnswer if an Oracle disagrees.
func (r Run) Confirm() error {
	if r.Err == nil && r.Oracle != nil {
		if got, want := r.Answer(), r.Oracle(); got != want {
			return fmt.Errorf("%w: answer %v (%T) differs from the oracle's %v (%T)", ErrWrongAnswer, got, got, want, want)
		}
	}
	return r.Err
}

// RunBatch builds every spec's instance at cfg.N and runs them all as
// one clique.RunBatch, so each run's Result and Err are those a serial
// clique.Run of its program would return. It is the one place a
// catalogue entry runs and is judged. The batch's wall clock covers
// instance generation and the engine execution, and is split across the
// runs in proportion to their rounds, a failed run counting none; when
// no run completes a round, every run gets an even share. The walls thus
// sum to at most the batch's wall. Then a completed run's failed Check
// becomes its Err (ErrFailedCheck, naming entry, n and seed). An empty
// spec list returns nil.
func RunBatch(cfg clique.Config, specs []Spec) []Run {
	if len(specs) == 0 {
		return nil
	}
	start := time.Now()
	runs := make([]Run, len(specs))
	progs := make([]clique.NodeFunc, len(specs))
	for i, s := range specs {
		runs[i].Instance = s.Alg.New(cfg.N, s.Seed)
		progs[i] = runs[i].Program
	}
	results, errs := clique.RunBatch(cfg, progs)
	wall := time.Since(start)
	var total int64
	for i := range runs {
		runs[i].Result, runs[i].Err = results[i], errs[i]
		if errs[i] == nil {
			total += int64(results[i].Stats.Rounds)
		}
	}
	for i, r := range runs {
		switch {
		case total == 0:
			runs[i].Wall = wall / time.Duration(len(runs))
		case r.Err == nil:
			runs[i].Wall = wall * time.Duration(r.Result.Stats.Rounds) / time.Duration(total)
		}
		if r.Err == nil && r.Check != nil {
			if err := r.Check(); err != nil {
				runs[i].Err = fmt.Errorf("%s n=%d seed=%d: %w: %w", specs[i].Alg.Name, cfg.N, specs[i].Seed, ErrFailedCheck, err)
			}
		}
	}
	return runs
}

// catalogue is the algorithm set, keyed by name. Registration-time
// extension (Register) exists for tests; the built-in set is fixed at
// init.
var (
	catMu     sync.RWMutex
	catalogue = map[string]Algorithm{}
)

// Register adds an algorithm to the catalogue; an empty name, a missing
// New or a duplicate name panics, mirroring exp.Register.
func Register(a Algorithm) {
	catMu.Lock()
	defer catMu.Unlock()
	if a.Name == "" || a.New == nil {
		panic(fmt.Sprintf("workload: algorithm %q missing Name or New", a.Name))
	}
	if _, dup := catalogue[a.Name]; dup {
		panic(fmt.Sprintf("workload: duplicate algorithm %q", a.Name))
	}
	catalogue[a.Name] = a
}

// Get looks up one algorithm by name.
func Get(name string) (Algorithm, bool) {
	catMu.RLock()
	defer catMu.RUnlock()
	a, ok := catalogue[name]
	return a, ok
}

// All returns the catalogue sorted by name.
func All() []Algorithm {
	catMu.RLock()
	defer catMu.RUnlock()
	out := make([]Algorithm, 0, len(catalogue))
	for _, a := range catalogue {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns the sorted algorithm names.
func Names() []string {
	catMu.RLock()
	defer catMu.RUnlock()
	names := make([]string, 0, len(catalogue))
	for name := range catalogue {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// node0 wraps a node program that returns its node's output: node 0
// keeps the output, and answer turns it into the entry's answer once
// the run is over.
func node0[T any](prog func(nd *clique.Node) T, answer func(T) any, oracle func() any) Instance {
	var out T
	return Instance{
		Program: func(nd *clique.Node) {
			if v := prog(nd); nd.ID() == 0 {
				out = v
			}
		},
		Answer: func() any { return answer(out) },
		Oracle: oracle,
	}
}

// same is the identity answer.
func same[T any](v T) any { return v }

// rowProgram is the "adjacency row → output" shape: each node runs f
// on its row of g, and the oracle answers the same question on g.
func rowProgram[T any](g *graph.Graph, f func(clique.Endpoint, graph.Bitset) T, oracle func(*graph.Graph) T) Instance {
	return node0(func(nd *clique.Node) T { return f(nd, g.Row(nd.ID())) }, same[T],
		func() any { return oracle(g) })
}

// agreed is the shape of a search that every node runs to the same
// result: each node runs find on its row of g and keeps its result.
// Answer is node 0's found bit and the oracle decides on g. Check fails
// unless every node returned node 0's result and, if node 0 found a
// witness, it has at most k vertices and valid accepts it.
func agreed[R any](g *graph.Graph, k int, find func(clique.Endpoint, graph.Bitset, int) R,
	witness func(R) (bool, []int), oracle func(*graph.Graph, int) bool, valid func(*graph.Graph, []int) bool) Instance {
	res := make([]R, g.N)
	return Instance{
		Program: func(nd *clique.Node) { res[nd.ID()] = find(nd, g.Row(nd.ID()), k) },
		Answer:  func() any { found, _ := witness(res[0]); return found },
		Oracle:  func() any { return oracle(g, k) },
		Check: func() error {
			for v := range res {
				if !reflect.DeepEqual(res[v], res[0]) {
					return fmt.Errorf("node %d answered %+v, node 0 %+v", v, res[v], res[0])
				}
			}
			if found, w := witness(res[0]); found && (len(w) > k || !valid(g, w)) {
				return fmt.Errorf("node 0's witness %v is not a solution of size at most %d", w, k)
			}
			return nil
		},
	}
}

func dsWitness(r domset.Result) (bool, []int) { return r.Found, r.Witness }

func vcWitness(r vcover.Result) (bool, []int) { return r.Found, r.Cover }

// KDS is the k-dominating set entry (Theorem 9) on a planted instance.
// The catalogue registers it at k = 3; E10 and E12 vary k.
func KDS(k int) Algorithm {
	return Algorithm{Name: "k-ds", Title: fmt.Sprintf("%d-dominating set (Theorem 9)", k), WPP: 8, New: func(n int, seed uint64) Instance {
		g, _ := graph.PlantedDominatingSet(n, k, 0.1, seed)
		return agreed(g, k, domset.Find, dsWitness, graph.HasDominatingSetOfSize, graph.IsDominatingSet)
	}}
}

// KVC is the k-vertex cover entry (Theorem 11) on a planted instance.
// The catalogue registers it at k = 3; E11 and E12 vary k.
func KVC(k int) Algorithm {
	return Algorithm{Name: "k-vc", Title: fmt.Sprintf("%d-vertex cover (Theorem 11)", k), WPP: 1, New: func(n int, seed uint64) Instance {
		g, _ := graph.PlantedVertexCover(n, k, 0.4, seed)
		return agreed(g, k, vcover.Find, vcWitness, graph.HasVertexCoverOfSize, graph.IsVertexCover)
	}}
}

// SparseTelemetry is mst-sparse's telemetry: node 0's SparseFind
// statistics and the instance's edge count.
type SparseTelemetry struct {
	mst.SparseStats
	Edges int
}

// MSTSparse is the message-frugal MST entry on G(n, density) with
// weights in [1, 60]. The catalogue registers it at density 0.5; the
// mstsparse experiment runs it at 0.6.
func MSTSparse(density float64) Algorithm {
	return Algorithm{Name: "mst-sparse", Title: "minimum spanning forest (message-frugal, o(m) words)", WPP: 8, New: func(n int, seed uint64) Instance {
		w := graph.GnpWeighted(n, density, 60, false, seed)
		return mstStats(w, seed, mst.SparseFind, func(st mst.SparseStats) any {
			m := 0
			for u, row := range w.W {
				m += count(row[u+1:], func(x int64) bool { return x < graph.Inf })
			}
			return SparseTelemetry{st, m}
		})
	}}
}

// kRow is rowProgram for a detector with parameter k.
func kRow(g *graph.Graph, k int, f func(clique.Endpoint, graph.Bitset, int) bool, oracle func(*graph.Graph, int) bool) Instance {
	return rowProgram(g, func(nd clique.Endpoint, row graph.Bitset) bool { return f(nd, row, k) },
		func(g *graph.Graph) bool { return oracle(g, k) })
}

// weightedRow is the "weight row → output" shape: each node runs f on
// its row of w, and answer reduces node 0's output.
func weightedRow[T any](w *graph.Weighted, f func(clique.Endpoint, []int64) T, answer func(T) any, oracle func() any) Instance {
	return node0(func(nd *clique.Node) T { return f(nd, w.W[nd.ID()]) }, answer, oracle)
}

// mstOf answers with node 0's forest weight against Kruskal's.
func mstOf(w *graph.Weighted, find func(clique.Endpoint, []int64) []mst.Edge) Instance {
	return weightedRow(w, find, func(f []mst.Edge) any { return mst.Weight(f) },
		func() any { wt, _ := mst.KruskalOracle(w); return wt })
}

// mstStats is mstOf for a finder that also returns statistics; the
// instance's Telemetry is tel of node 0's.
func mstStats[S any](w *graph.Weighted, seed uint64, find func(clique.Endpoint, []int64, uint64) ([]mst.Edge, S), tel func(S) any) Instance {
	var st S
	inst := mstOf(w, func(nd clique.Endpoint, row []int64) []mst.Edge {
		f, s := find(nd, row, seed)
		if nd.ID() == 0 {
			st = s
		}
		return f
	})
	inst.Telemetry = func() any { return tel(st) }
	return inst
}

// boolSquare multiplies the adjacency matrix by itself with mul; the
// answer is the number of nodes two steps from node 0.
func boolSquare(g *graph.Graph, mul matmul.MulFunc) Instance {
	return node0(func(nd *clique.Node) []int64 {
		row := matmul.AdjacencyRow(g, nd.ID())
		return mul(nd, matmul.Boolean{}, row, row)
	}, nonzero, func() any {
		two := graph.NewBitset(g.N)
		g.Neighbors(0, func(u int) { two.SetUnion(two, g.Row(u)) })
		return two.Count()
	})
}

// count counts the entries of xs that satisfy keep.
func count[T any](xs []T, keep func(T) bool) int {
	c := 0
	for _, x := range xs {
		if keep(x) {
			c++
		}
	}
	return c
}

func nonzero(row []int64) any { return count(row, func(x int64) bool { return x != 0 }) }

// finiteSum sums the reachable entries of a distance row.
func finiteSum(row []int64) int64 {
	var s int64
	for _, d := range row {
		if d < graph.Inf {
			s += d
		}
	}
	return s
}

// sortKeys are node v's eight keys in [0, n²).
func sortKeys(n int, seed uint64, v int) []uint64 {
	r := rand.New(rand.NewPCG(seed, uint64(v)))
	keys := make([]uint64, 8)
	for i := range keys {
		keys[i] = r.Uint64N(uint64(n * n))
	}
	return keys
}

func sum(keys []uint64) (s uint64) {
	for _, k := range keys {
		s += k
	}
	return s
}

func init() {
	for _, a := range []Algorithm{
		{Name: "exchange", Title: "one-round all-to-all broadcast exchange", WPP: 1, New: func(n int, seed uint64) Instance {
			// The answer weighs each word by its sender's position: a
			// plain sum of v XOR seed is the same for every seed < n
			// when n is a power of two.
			return node0(func(nd *clique.Node) []uint64 { return comm.BroadcastWord(nd, uint64(nd.ID())^seed) },
				func(got []uint64) any {
					var s uint64
					for v, w := range got {
						s += uint64(v+1) * w
					}
					return s
				}, func() any {
					var s uint64
					for v := 0; v < n; v++ {
						s += uint64(v+1) * (uint64(v) ^ seed)
					}
					return s
				})
		}},
		{Name: "triangle", Title: "triangle detection (Dolev et al.)", WPP: 8, New: func(n int, seed uint64) Instance {
			return rowProgram(graph.Gnp(n, 0.2, seed), subgraph.DetectTriangle, graph.HasTriangle)
		}},
		{Name: "k-is", Title: "3-independent-set detection", WPP: 8, New: func(n int, seed uint64) Instance {
			return kRow(graph.Gnp(n, 0.6, seed), 3, subgraph.DetectIndependentSet, graph.HasIndependentSetOfSize)
		}},
		{Name: "k-clique", Title: "3-clique detection", WPP: 8, New: func(n int, seed uint64) Instance {
			return kRow(graph.Gnp(n, 0.2, seed), 3, subgraph.DetectClique, graph.HasCliqueOfSize)
		}},
		{Name: "k-cycle", Title: "4-cycle detection", WPP: 8, New: func(n int, seed uint64) Instance {
			return kRow(graph.Gnp(n, 0.2, seed), 4, subgraph.DetectCycle, graph.HasCycleOfLength)
		}},
		{Name: "k-path", Title: "3-vertex path detection", WPP: 8, New: func(n int, seed uint64) Instance {
			return kRow(graph.Gnp(n, 0.2, seed), 3, subgraph.DetectPath, graph.HasSimplePathOfLength)
		}},
		KDS(3),
		KVC(3),
		{Name: "k-col", Title: "3-colourability (full gather)", WPP: 8, New: func(n int, seed uint64) Instance {
			g, _ := graph.PlantedColoring(n, 3, 0.7, seed)
			return kRow(g, 3, gather.KColorable, graph.IsKColorable)
		}},
		{Name: "maxis", Title: "maximum independent set size (full gather)", WPP: 1, New: func(n int, seed uint64) Instance {
			return rowProgram(graph.Gnp(n, 0.92, seed), gather.MaxIndependentSetSize, graph.MaxIndependentSetSize)
		}},
		{Name: "boolmm-3d", Title: "Boolean matrix multiplication (3D schedule)", WPP: 8, New: func(n int, seed uint64) Instance {
			return boolSquare(graph.Gnp(n, 0.5, seed), matmul.Mul3D)
		}},
		{Name: "boolmm-naive", Title: "Boolean matrix multiplication (naive broadcast)", WPP: 8, New: func(n int, seed uint64) Instance {
			return boolSquare(graph.Gnp(n, 0.5, seed), matmul.MulNaive)
		}},
		{Name: "tc", Title: "transitive closure (Boolean squaring)", WPP: 8, New: func(n int, seed uint64) Instance {
			g := graph.Gnp(n, 0.1, seed)
			return node0(func(nd *clique.Node) []int64 {
				return paths.TransitiveClosure(nd, matmul.AdjacencyRow(g, nd.ID()), matmul.Mul3D)
			}, nonzero, func() any { return count(graph.BFSDistances(g, 0), func(d int64) bool { return d < graph.Inf }) })
		}},
		{Name: "bfs", Title: "BFS tree from node n−1", WPP: 8, New: func(n int, seed uint64) Instance {
			return rowProgram(graph.Gnp(n, 0.2, seed),
				func(nd clique.Endpoint, row graph.Bitset) int64 { return paths.BFS(nd, row, n-1).Dist },
				func(g *graph.Graph) int64 { return graph.BFSDistances(g, n-1)[0] })
		}},
		{Name: "sssp", Title: "SSSP from node n−1 (Bellman-Ford)", WPP: 1, New: func(n int, seed uint64) Instance {
			w := graph.GnpWeighted(n, 0.2, 30, false, seed)
			return weightedRow(w, func(nd clique.Endpoint, row []int64) int64 { return paths.SSSP(nd, row, n-1).Dist },
				same[int64], func() any { return graph.FloydWarshall(w)[n-1][0] })
		}},
		{Name: "apsp", Title: "APSP, weighted undirected ((min,+) squaring)", WPP: 8, New: func(n int, seed uint64) Instance {
			w := graph.GnpWeighted(n, 0.3, 40, false, seed)
			return weightedRow(w, func(nd clique.Endpoint, row []int64) []int64 { return paths.APSP(nd, row, matmul.Mul3D) },
				func(row []int64) any { return finiteSum(row) }, func() any { return finiteSum(graph.FloydWarshall(w)[0]) })
		}},
		{Name: "mst", Title: "minimum spanning forest (Borůvka)", WPP: 1, New: func(n int, seed uint64) Instance {
			return mstOf(graph.GnpWeighted(n, 0.3, 60, false, seed), mst.Find)
		}},
		{Name: "mst-sketch", Title: "minimum spanning forest (ℓ₀-sketch, O(1) rounds)", WPP: 32, New: func(n int, seed uint64) Instance {
			return mstStats(graph.GnpWeighted(n, 0.3, 60, false, seed), seed, mst.SketchFind, same[mst.SketchStats])
		}},
		MSTSparse(0.5),
		{Name: "sort", Title: "global radix sort of 8 keys per node", WPP: 4, New: func(n int, seed uint64) Instance {
			return node0(func(nd *clique.Node) routing.SortResult {
				return routing.Sort(nd, sortKeys(n, seed, nd.ID()), uint64(n*n))
			}, func(r routing.SortResult) any { return sum(r.Keys) }, func() any {
				var all []uint64
				for v := 0; v < n; v++ {
					all = append(all, sortKeys(n, seed, v)...)
				}
				slices.Sort(all)
				return sum(all[:(len(all)+n-1)/n])
			})
		}},
	} {
		Register(a)
	}
}
