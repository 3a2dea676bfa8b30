package repro

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/clique"
	"repro/internal/comm"
	"repro/internal/domset"
	"repro/internal/gather"
	"repro/internal/graph"
	"repro/internal/hierarchy"
	"repro/internal/matmul"
	"repro/internal/mst"
	"repro/internal/nondet"
	"repro/internal/paths"
	"repro/internal/reduction"
	"repro/internal/routing"
	"repro/internal/subgraph"
	"repro/internal/vcover"
	"repro/internal/virtual"
)

// This file pins the tentpole guarantee of the execution-backend split:
// every algorithm in the repository produces bit-identical outputs, round
// counts, and communication statistics on the goroutine and lockstep
// engines. Each case builds a fresh NodeFunc per backend (closures carry
// per-run outputs) and compares stats plus an output fingerprint.

// backendCase is one algorithm workload: make returns a NodeFunc and a
// function extracting the run's output for comparison.
type backendCase struct {
	name string
	wpp  int
	n    int
	make func(n int) (clique.NodeFunc, func() any)
}

func backendCases() []backendCase {
	return []backendCase{
		{"triangle", 8, 27, func(n int) (clique.NodeFunc, func() any) {
			g := graph.Gnp(n, 0.2, uint64(n))
			out := make([]bool, n)
			return func(nd *clique.Node) { out[nd.ID()] = subgraph.DetectTriangle(nd, g.Row(nd.ID())) },
				func() any { return out }
		}},
		{"3-is", 8, 27, func(n int) (clique.NodeFunc, func() any) {
			g := graph.Gnp(n, 0.6, uint64(n))
			out := make([]bool, n)
			return func(nd *clique.Node) { out[nd.ID()] = subgraph.DetectIndependentSet(nd, g.Row(nd.ID()), 3) },
				func() any { return out }
		}},
		{"4-clique", 8, 16, func(n int) (clique.NodeFunc, func() any) {
			g := graph.Gnp(n, 0.6, uint64(n)+1)
			out := make([]bool, n)
			return func(nd *clique.Node) { out[nd.ID()] = subgraph.DetectClique(nd, g.Row(nd.ID()), 4) },
				func() any { return out }
		}},
		{"4-cycle", 8, 16, func(n int) (clique.NodeFunc, func() any) {
			g := graph.Gnp(n, 0.3, uint64(n)+2)
			out := make([]bool, n)
			return func(nd *clique.Node) { out[nd.ID()] = subgraph.DetectCycle(nd, g.Row(nd.ID()), 4) },
				func() any { return out }
		}},
		{"3-path", 8, 16, func(n int) (clique.NodeFunc, func() any) {
			g := graph.Gnp(n, 0.3, uint64(n)+3)
			out := make([]bool, n)
			return func(nd *clique.Node) { out[nd.ID()] = subgraph.DetectPath(nd, g.Row(nd.ID()), 3) },
				func() any { return out }
		}},
		{"boolean-mm-3d", 8, 27, func(n int) (clique.NodeFunc, func() any) {
			g := graph.Gnp(n, 0.5, uint64(n))
			out := make([][]int64, n)
			return func(nd *clique.Node) {
					row := matmul.AdjacencyRow(g, nd.ID())
					out[nd.ID()] = matmul.Mul3D(nd, matmul.Boolean{}, row, row)
				},
				func() any { return out }
		}},
		{"boolean-mm-naive", 8, 16, func(n int) (clique.NodeFunc, func() any) {
			g := graph.Gnp(n, 0.5, uint64(n))
			out := make([][]int64, n)
			return func(nd *clique.Node) {
					row := matmul.AdjacencyRow(g, nd.ID())
					out[nd.ID()] = matmul.MulNaive(nd, matmul.Boolean{}, row, row)
				},
				func() any { return out }
		}},
		{"apsp", 8, 27, func(n int) (clique.NodeFunc, func() any) {
			g := graph.GnpWeighted(n, 0.3, 40, false, uint64(n))
			out := make([][]int64, n)
			return func(nd *clique.Node) { out[nd.ID()] = paths.APSP(nd, g.W[nd.ID()], matmul.Mul3D) },
				func() any { return out }
		}},
		{"bfs", 4, 24, func(n int) (clique.NodeFunc, func() any) {
			g := graph.Gnp(n, 0.2, uint64(n))
			out := make([]paths.BFSResult, n)
			return func(nd *clique.Node) { out[nd.ID()] = paths.BFS(nd, g.Row(nd.ID()), 0) },
				func() any { return out }
		}},
		{"sssp", 1, 24, func(n int) (clique.NodeFunc, func() any) {
			g := graph.GnpWeighted(n, 0.3, 30, false, uint64(n))
			out := make([]paths.SSSPResult, n)
			return func(nd *clique.Node) { out[nd.ID()] = paths.SSSP(nd, g.W[nd.ID()], 0) },
				func() any { return out }
		}},
		{"3-ds", 8, 27, func(n int) (clique.NodeFunc, func() any) {
			g, _ := graph.PlantedDominatingSet(n, 3, 0.1, uint64(n))
			out := make([]domset.Result, n)
			return func(nd *clique.Node) { out[nd.ID()] = domset.Find(nd, g.Row(nd.ID()), 3) },
				func() any { return out }
		}},
		{"3-vc", 1, 32, func(n int) (clique.NodeFunc, func() any) {
			g, _ := graph.PlantedVertexCover(n, 3, 0.4, uint64(n))
			out := make([]vcover.Result, n)
			return func(nd *clique.Node) { out[nd.ID()] = vcover.Find(nd, g.Row(nd.ID()), 3) },
				func() any { return out }
		}},
		{"mst", 1, 32, func(n int) (clique.NodeFunc, func() any) {
			g := graph.GnpWeighted(n, 0.3, 60, false, uint64(n))
			out := make([]int64, n)
			return func(nd *clique.Node) { out[nd.ID()] = mst.Weight(mst.Find(nd, g.W[nd.ID()])) },
				func() any { return out }
		}},
		{"route", 4, 32, func(n int) (clique.NodeFunc, func() any) {
			out := make([][]uint64, n)
			return func(nd *clique.Node) {
					recs := make([]uint64, 0, 2*16)
					for i := 0; i < 16; i++ {
						recs = append(recs, uint64((nd.ID()+i+1)%n), uint64(nd.ID()*100+i))
					}
					out[nd.ID()] = comm.Route(nd, recs, 1, 9)
				},
				func() any { return out }
		}},
		{"sort", 4, 16, func(n int) (clique.NodeFunc, func() any) {
			out := make([]routing.SortResult, n)
			return func(nd *clique.Node) {
					keys := make([]uint64, 8)
					for i := range keys {
						keys[i] = uint64((nd.ID()*131 + i*37) % 256)
					}
					out[nd.ID()] = routing.Sort(nd, keys, 256)
				},
				func() any { return out }
		}},
		{"maxis-gather", 1, 20, func(n int) (clique.NodeFunc, func() any) {
			g := graph.Gnp(n, 0.9, uint64(n))
			out := make([]int, n)
			return func(nd *clique.Node) { out[nd.ID()] = gather.MaxIndependentSetSize(nd, g.Row(nd.ID())) },
				func() any { return out }
		}},
		{"is-via-ds-sim", 16, 8, func(n int) (clique.NodeFunc, func() any) {
			g := graph.Gnp(n, 0.5, uint64(n)+3)
			out := make([]reduction.ISResult, n)
			return func(nd *clique.Node) { out[nd.ID()] = reduction.FindISViaDS(nd, g.Row(nd.ID()), 2) },
				func() any { return out }
		}},
		{"sigma2-hierarchy", 1, 6, func(n int) (clique.NodeFunc, func() any) {
			g := graph.Complete(n)
			alg := hierarchy.SigmaTwoUniversal(graph.HasTriangle)
			z1 := hierarchy.HonestGuess(g)
			z2 := hierarchy.CatchingChallenge(n, 0, 0, 1)
			out := make([]bool, n)
			return func(nd *clique.Node) {
					out[nd.ID()] = alg(nd, g.Row(nd.ID()), [][]uint64{z1[nd.ID()], z2[nd.ID()]})
				},
				func() any { return out }
		}},
	}
}

func TestBackendEquivalenceAcrossAlgorithms(t *testing.T) {
	for _, tc := range backendCases() {
		t.Run(tc.name, func(t *testing.T) {
			type outcome struct {
				stats clique.Stats
				out   any
			}
			results := map[string]outcome{}
			for _, backend := range clique.Backends() {
				f, get := tc.make(tc.n)
				res, err := clique.Run(clique.Config{N: tc.n, WordsPerPair: tc.wpp, Backend: backend}, f)
				if err != nil {
					t.Fatalf("%s: %v", backend, err)
				}
				results[backend] = outcome{res.Stats, get()}
			}
			ref := results["goroutine"]
			for backend, got := range results {
				if got.stats != ref.stats {
					t.Errorf("%s stats = %+v, goroutine stats = %+v", backend, got.stats, ref.stats)
				}
				if !reflect.DeepEqual(got.out, ref.out) {
					t.Errorf("%s outputs diverge from goroutine outputs", backend)
				}
			}
		})
	}
}

// TestBackendEquivalenceNondetVerifier runs the Theorem 3 pipeline
// (prover, transcript certificates, normal-form verifier) on both
// backends and demands identical verdicts and stats.
func TestBackendEquivalenceNondetVerifier(t *testing.T) {
	const n = 10
	g, _ := graph.PlantedColoring(n, 3, 0.7, uint64(n))
	alg := nondet.KColoringVerifier(3)
	z := nondet.KColoringProver(g, 3)
	if z == nil {
		t.Skip("prover found no colouring for this instance")
	}
	type run struct {
		accepted bool
		stats    clique.Stats
	}
	results := map[string]run{}
	for _, backend := range clique.Backends() {
		verdict, err := nondet.RunVerifier(clique.Config{N: n, Backend: backend}, g, alg, z)
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		results[backend] = run{verdict.Accepted, verdict.Result.Stats}
	}
	ref := results["goroutine"]
	for backend, got := range results {
		if got != ref {
			t.Errorf("%s verdict/stats = %+v, goroutine = %+v", backend, got, ref)
		}
	}
}

// fuzzBackendProgram builds a pseudo-random node program — random
// per-round send patterns and message lengths, derived purely from
// (seed, id, round) — so each backend replays the identical program.
func fuzzBackendProgram(seed int64, n, wpp int) clique.NodeFunc {
	prog := fuzzEndpointProgram(seed, n, wpp, nil, nil)
	return func(nd *clique.Node) { prog(nd) }
}

// roundView is what one node learned in one completed round: the peers
// that spoke to it, ascending, and a digest of their words in that
// order.
type roundView struct {
	Senders []int
	Digest  uint64
}

// fuzzEndpointProgram is fuzzBackendProgram written against
// clique.Endpoint, so it also runs as the virtual nodes of a simulated
// clique. Each round it may broadcast (Broadcast, BroadcastWords or a
// staged BroadcastBuf) before and after its unicasts (Send, SendWords
// or SendBuf), all within the per-pair budget; it reads every sender
// with Recv or RecvInto, and in its last round it may return with words
// still queued or staged. One round in three, chosen by the seed and
// the round alone so every node agrees, is uniform: every node
// broadcasts the same number of words and nothing else, the round the
// lockstep engine keeps a shared table for. When views is non-nil,
// node v appends its roundView after every Tick to views[v].
//
// After every Tick a *clique.Node also checks the engine's shared
// table at every width against its Recv loop: when the table exists,
// each peer's slot must equal its Recv words and the node's own slot
// the words it broadcast, which must have been its only traffic. Each
// table seen is counted in tables, when non-nil.
func fuzzEndpointProgram(seed int64, n, wpp int, views [][]roundView, tables *atomic.Int64) func(nd clique.Endpoint) {
	return func(nd clique.Endpoint) {
		me := nd.ID()
		rng := rand.New(rand.NewSource(seed<<32 | int64(me)))
		words := func(k int) []uint64 {
			w := make([]uint64, k)
			for i := range w {
				w[i] = rng.Uint64() % 1000
			}
			return w
		}
		used := make([]int, n)
		var mine []uint64 // this round's broadcast, when it was the node's only traffic
		broadcast := func(k int) {
			mine = words(k)
			switch rng.Intn(3) {
			case 0:
				nd.Broadcast(mine...)
			case 1:
				nd.BroadcastWords(mine)
			default:
				copy(nd.BroadcastBuf(k), mine)
			}
			for to := range used {
				used[to] += k
			}
		}
		var in []uint64
		rounds := 2 + rng.Intn(4)
		for r := 0; r < rounds; r++ {
			clear(used)
			mine = nil
			last := r == rounds-1 && rng.Intn(3) == 0
			if u := seed + int64(r); u%3 == 0 {
				broadcast(1 + int(u/3&1)%min(wpp, 2))
				if last {
					return
				}
			} else {
				if rng.Intn(2) == 0 {
					broadcast(1 + rng.Intn(min(wpp, 2)))
				}
				for _, to := range rng.Perm(n)[:1+rng.Intn(n-1)] {
					if to == me || used[to] == wpp {
						continue
					}
					k := 1 + rng.Intn(wpp-used[to])
					used[to] += k
					mine = nil
					switch rng.Intn(3) {
					case 0:
						nd.Send(to, words(k)...)
					case 1:
						nd.SendWords(to, words(k))
					default:
						copy(nd.SendBuf(to, k), words(k))
					}
				}
				// A node that leaves in its last round stages a
				// broadcast when every link has room, and returns
				// without Tick: its queued and staged words still reach
				// the peers that tick.
				if room := wpp - slices.Max(used); room > 0 && last {
					copy(nd.BroadcastBuf(room), words(room))
				} else if room > 0 && rng.Intn(3) == 0 {
					before := len(mine)
					broadcast(1 + rng.Intn(room))
					if before > 0 {
						mine = nil // two broadcasts: the second spills the first
					}
				}
				if last {
					return
				}
			}
			nd.Tick()
			if node, ok := nd.(*clique.Node); ok {
				checkSharedTable(node, wpp, mine, tables)
			}
			senders := nd.Senders(nil)
			var digest uint64
			for _, p := range senders {
				got := nd.Recv(p)
				if rng.Intn(2) == 0 {
					in = nd.RecvInto(p, in[:0])
					got = in
				}
				for _, w := range got {
					digest = digest*1_000_003 + uint64(p)<<32 + w
				}
			}
			if views != nil {
				views[me] = append(views[me], roundView{senders, digest})
			}
		}
	}
}

// checkSharedTable fails the run unless the engine's shared table of
// the round nd just completed, at every width up to wpp, is either nil
// or exactly what nd's per-peer Recv loop reads, with nd's own slot
// holding mine, its only traffic of the round.
func checkSharedTable(nd *clique.Node, wpp int, mine []uint64, tables *atomic.Int64) {
	me := nd.ID()
	for k := 1; k <= wpp; k++ {
		t := nd.BroadcastTable(k)
		if t == nil {
			continue
		}
		if tables != nil {
			tables.Add(1)
		}
		if len(t) != nd.N()*k || !slices.Equal(t[me*k:(me+1)*k], mine) {
			nd.Fail("shared table %v of width %d: own slot is not this node's only broadcast %v", t, k, mine)
		}
		for p := 0; p < nd.N(); p++ {
			if p == me {
				continue
			}
			if got := nd.Recv(p); !slices.Equal(t[p*k:(p+1)*k], got) {
				nd.Fail("shared table slot %d = %v, Recv(%d) = %v", p, t[p*k:(p+1)*k], p, got)
			}
		}
	}
}

// checkBackendEquivalence replays the seed's program on every backend
// and compares stats and full transcripts word for word, and the
// per-round views (senders and received-word digests) of every node.
// The same program run as the virtual nodes of a simulated clique, whose
// node handle stages and flushes on its own, is the independent oracle
// for each backend's views.
//
// It returns how many shared tables the lockstep nodes saw, each
// checked against its Recv loop; the goroutine backend must see none.
func checkBackendEquivalence(t *testing.T, seed int64, n, wpp int) (lockstepTables int64) {
	t.Helper()
	var refStats clique.Stats
	var refTr []*clique.Transcript
	backendViews := map[string][][]roundView{}
	for i, backend := range clique.Backends() {
		views := make([][]roundView, n)
		var tables atomic.Int64
		prog := fuzzEndpointProgram(seed, n, wpp, views, &tables)
		res, err := clique.Run(clique.Config{N: n, WordsPerPair: wpp, RecordTranscript: true, Backend: backend},
			func(nd *clique.Node) { prog(nd) })
		if err != nil {
			t.Fatalf("seed %d backend %s: %v", seed, backend, err)
		}
		backendViews[backend] = views
		switch backend {
		case "lockstep":
			lockstepTables = tables.Load()
		case "goroutine":
			if c := tables.Load(); c != 0 {
				t.Errorf("seed %d: goroutine backend handed out %d shared tables", seed, c)
			}
		}
		if i == 0 {
			refStats, refTr = res.Stats, res.Transcripts
			continue
		}
		if res.Stats != refStats {
			t.Errorf("seed %d: %s stats %+v != %+v", seed, backend, res.Stats, refStats)
		}
		if !reflect.DeepEqual(res.Transcripts, refTr) {
			t.Errorf("seed %d: %s transcripts diverge", seed, backend)
		}
	}
	// The virtual clique: n virtual nodes hosted round-robin on a
	// smaller real clique.
	hosts := (n + 1) / 2
	views := make([][]roundView, n)
	prog := fuzzEndpointProgram(seed, n, wpp, views, nil)
	_, err := clique.Run(clique.Config{N: hosts, WordsPerPair: 4, Backend: "lockstep"}, func(nd *clique.Node) {
		virtual.Run(nd, virtual.Config{M: n, Host: func(v int) int { return v % hosts }, WordsPerPair: wpp},
			func(vn *virtual.Node) { prog(vn) })
	})
	if err != nil {
		t.Fatalf("seed %d virtual clique: %v", seed, err)
	}
	for _, backend := range clique.Backends() {
		if got := backendViews[backend]; !reflect.DeepEqual(got, views) {
			t.Errorf("seed %d: %s views %v, virtual clique %v", seed, backend, got, views)
		}
	}
	return lockstepTables
}

// TestBackendEquivalenceFuzz is the always-on slice of the fuzz target:
// a fixed seed sweep that runs under plain `go test`.
func TestBackendEquivalenceFuzz(t *testing.T) {
	var tables int64
	for seed := int64(0); seed < 12; seed++ {
		tables += checkBackendEquivalence(t, seed, 3+int(seed%5), 3)
	}
	if tables == 0 {
		t.Error("no lockstep node saw a shared broadcast table: the table check is vacuous")
	}
}

// FuzzBackendEquivalence is the coverage-guided form: the fuzzer picks
// arbitrary seeds (and through them n, the round counts, and the send
// patterns) hunting for any divergence between the execution engines.
// CI runs it for a short fixed budget; locally:
//
//	go test -run '^$' -fuzz FuzzBackendEquivalence -fuzztime=30s .
func FuzzBackendEquivalence(f *testing.F) {
	for seed := int64(0); seed < 12; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		n := 3 + int(((seed%5)+5)%5) // 3..7, well-defined for negative seeds
		checkBackendEquivalence(t, seed, n, 3)
	})
}

// TestBackendEquivalenceErrors checks that model violations surface as
// the same error on both backends.
func TestBackendEquivalenceErrors(t *testing.T) {
	progs := map[string]clique.NodeFunc{
		"bandwidth": func(nd *clique.Node) {
			if nd.ID() == 1 {
				nd.Send(0, 1, 2, 3, 4, 5)
			}
			nd.Tick()
		},
		"unicast-in-broadcast-model": func(nd *clique.Node) {
			if nd.ID() == 2 {
				nd.Send(0, 9)
			}
			nd.Tick()
		},
		"panic": func(nd *clique.Node) {
			if nd.ID() == 1 {
				panic("fuzz-panic")
			}
			nd.Tick()
		},
		"fail": func(nd *clique.Node) {
			if nd.ID() == 0 {
				nd.Fail("deliberate")
			}
			nd.Tick()
		},
	}
	for name, prog := range progs {
		var ref error
		for i, backend := range clique.Backends() {
			cfg := clique.Config{N: 4, WordsPerPair: 2, Backend: backend}
			if name == "unicast-in-broadcast-model" {
				cfg.BroadcastOnly = true
			}
			_, err := clique.Run(cfg, prog)
			if err == nil {
				t.Fatalf("%s/%s: expected error", name, backend)
			}
			if i == 0 {
				ref = err
			} else if err.Error() != ref.Error() {
				t.Errorf("%s: %s error %q != goroutine error %q", name, backend, err, ref)
			}
		}
	}
}

func Example_bothBackends() {
	for _, backend := range clique.Backends() {
		res, err := clique.Run(clique.Config{N: 4, Backend: backend}, func(nd *clique.Node) {
			nd.Broadcast(uint64(nd.ID()))
			nd.Tick()
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s: %d round, %d words\n", backend, res.Stats.Rounds, res.Stats.WordsSent)
	}
	// Output:
	// goroutine: 1 round, 12 words
	// lockstep: 1 round, 12 words
}
