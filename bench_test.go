// Package repro's root benchmark harness: one benchmark family per
// experiment in EXPERIMENTS.md (E1-E13), each regenerating the
// corresponding figure or theorem of Korhonen & Suomela, "Towards a
// complexity theory for the congested clique" (SPAA 2018). The primary
// metric reported everywhere is "rounds" — the model's cost measure —
// alongside wall-clock time of the simulation itself.
package repro

import (
	"flag"
	"fmt"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/clique"
	"repro/internal/comm"
	"repro/internal/counting"
	"repro/internal/domset"
	"repro/internal/exp"
	"repro/internal/fgc"
	"repro/internal/graph"
	"repro/internal/hierarchy"
	"repro/internal/matmul"
	"repro/internal/nondet"
	"repro/internal/reduction"
	"repro/internal/subgraph"
	"repro/internal/vcover"
	"repro/internal/workload"
)

// benchBackend selects the execution engine for every root benchmark:
// `go test -bench . -args -backend=goroutine` benchmarks the reference
// engine, the default benchmarks the lockstep engine. Model costs
// (rounds, words) are backend-independent; wall-clock is the contrast.
var benchBackend = flag.String("backend", "lockstep", "execution backend for the root benchmarks (goroutine, lockstep)")

// benchRounds runs one simulated execution per iteration and reports the
// round count as a custom metric.
func benchRounds(b *testing.B, n, wpp int, f clique.NodeFunc) {
	b.Helper()
	var lastRounds, lastWords int64
	for i := 0; i < b.N; i++ {
		res, err := clique.Run(clique.Config{N: n, WordsPerPair: wpp, Backend: *benchBackend}, f)
		if err != nil {
			b.Fatal(err)
		}
		lastRounds = int64(res.Stats.Rounds)
		lastWords = res.Stats.WordsSent
	}
	b.ReportMetric(float64(lastRounds), "rounds")
	b.ReportMetric(float64(lastWords), "words")
}

// ---------------------------------------------------------------------
// E1 / Figure 1 and the catalogue: every internal/workload entry at
// its default word budget, seeded by n as the Figure 1 experiment seeds
// it, so triangle/n=64 is exactly the E1 instance. An entry is
// benchmarked the moment it is registered.

func BenchmarkWorkloads(b *testing.B) {
	for _, alg := range workload.All() {
		for _, n := range []int{27, 64, 125} {
			f := alg.Make(n, uint64(n))
			b.Run(fmt.Sprintf("%s/n=%d", alg.Name, n), func(b *testing.B) {
				benchRounds(b, n, alg.WPP, f)
			})
		}
	}
}

// BenchmarkFig1_BooleanMMPackedSteady is the steady-state form of the
// packed boolean product: many word-parallel naive products inside one
// simulated run, so per-run setup amortises away and the number is the
// serving-loop throughput (rounds/sec) the bit-packed plane sustains.
// The unpacked per-entry path managed ~146 rounds/sec at n=216; the
// packed plane holds well above 5x that.
func BenchmarkFig1_BooleanMMPackedSteady(b *testing.B) {
	const products = 50
	for _, n := range []int{64, 216} {
		g := graph.Gnp(n, 0.5, uint64(n))
		rows := make([]bitvec.Row, n)
		for v := 0; v < n; v++ {
			rows[v] = bitvec.FromInt64s(matmul.AdjacencyRow(g, v))
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchRounds(b, n, 8, func(nd *clique.Node) {
				for r := 0; r < products; r++ {
					matmul.MulNaiveBits(nd, rows[nd.ID()], rows[nd.ID()])
				}
			})
		})
	}
}

// ---------------------------------------------------------------------
// Registry smoke: every registered experiment end to end at quick
// sizes — the family CI's benchmark job runs so a new experiment is
// benchmarked the moment it is registered.

func BenchmarkExperiments(b *testing.B) {
	for _, e := range exp.All() {
		b.Run(e.ID, func(b *testing.B) {
			var rounds int64
			for i := 0; i < b.N; i++ {
				res, _, err := exp.RunOne(e.ID, exp.Options{Backend: *benchBackend, Quick: true})
				if err != nil {
					b.Fatal(err)
				}
				rounds = res.Sim.Rounds
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// ---------------------------------------------------------------------
// E2 / Figure 2, Theorem 10: the IS-via-DS reduction, simulated.

func BenchmarkFig2_ISviaDS(b *testing.B) {
	for _, n := range []int{6, 8, 10} {
		g := graph.Gnp(n, 0.5, uint64(n))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchRounds(b, n, 16, func(nd *clique.Node) {
				reduction.FindISViaDS(nd, g.Row(nd.ID()), 2)
			})
		})
	}
}

func BenchmarkFig2_DirectDSBaseline(b *testing.B) {
	for _, n := range []int{6, 8, 10} {
		g := graph.Gnp(n, 0.5, uint64(n))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchRounds(b, n, 16, func(nd *clique.Node) {
				domset.Find(nd, g.Row(nd.ID()), 2)
			})
		})
	}
}

// ---------------------------------------------------------------------
// E3 / Theorem 2 and E6 / Theorem 4 and E9 / Theorem 8: counting bounds.

func BenchmarkThm2_CountingBounds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, n := range []int{64, 256, 1024} {
			bw := clique.WordBits(n)
			counting.MaxHardRounds(n, bw, 32*bw)
		}
	}
}

func BenchmarkThm4_NondetBounds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for Tn := 4; Tn <= 64; Tn *= 2 {
			counting.Theorem4Params(1<<12, Tn)
		}
	}
}

func BenchmarkThm8_LogHierarchyBounds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, k := range []int{1, 4, 16, 64} {
			counting.Theorem8Params(256, k, 512)
		}
	}
}

// ---------------------------------------------------------------------
// E4 / Lemma 1: the exhaustive micro diagonalisation.

func BenchmarkLemma1_MicroDiagonalisation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := counting.Diagonalise(2)
		if !res.HardExists {
			b.Fatal("no hard function found")
		}
	}
}

// ---------------------------------------------------------------------
// E5 / Theorem 3: transcript certificates and the normal form.

func BenchmarkThm3_NormalForm(b *testing.B) {
	for _, n := range []int{8, 16} {
		g, _ := graph.PlantedColoring(n, 3, 0.7, uint64(n))
		alg := nondet.KColoringVerifier(3)
		z := nondet.KColoringProver(g, 3)
		if z == nil {
			b.Fatal("prover failed")
		}
		certs, err := nondet.TranscriptCertificate(clique.Config{N: n, Backend: *benchBackend}, g, alg, z)
		if err != nil {
			b.Fatal(err)
		}
		bVerifier := nondet.NormalForm(alg, 1, nondet.WordSpace(3))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var bits int
			for i := 0; i < b.N; i++ {
				verdict, err := nondet.RunVerifier(clique.Config{N: n, Backend: *benchBackend}, g, bVerifier, certs)
				if err != nil || !verdict.Accepted {
					b.Fatal("normal form rejected honest certificate")
				}
				bits = certs.SizeBits(n)
			}
			b.ReportMetric(float64(bits), "certbits")
		})
	}
}

// ---------------------------------------------------------------------
// E7 / Theorem 6: compiled edge labelling verification stays O(1).

func BenchmarkThm6_EdgeLabelling(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchRounds(b, n, 1, func(nd *clique.Node) {
				// One consistency round over incident labels, the
				// verification skeleton of the canonical problems.
				me := nd.ID()
				labels := make([]uint64, n)
				for v := 0; v < n; v++ {
					labels[v] = uint64((me + v) % 7)
				}
				peers, delivered := comm.AllToAllWord(nd, labels)
				for v := 0; v < n; v++ {
					if v == me {
						continue
					}
					if !delivered[v] || peers[v] != labels[v] {
						nd.Fail("label mismatch")
					}
				}
			})
		})
	}
}

// ---------------------------------------------------------------------
// E8 / Theorem 7: the Sigma_2 collapse protocol.

func BenchmarkThm7_SigmaTwo(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		g := graph.Gnp(n, 0.4, uint64(n))
		alg := hierarchy.SigmaTwoUniversal(graph.HasTriangle)
		z1 := hierarchy.HonestGuess(g)
		z2 := hierarchy.CatchingChallenge(n, 0, 0, 1)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchRounds(b, n, 1, func(nd *clique.Node) {
				alg(nd, g.Row(nd.ID()), [][]uint64{z1[nd.ID()], z2[nd.ID()]})
			})
		})
	}
}

// ---------------------------------------------------------------------
// E10 / Theorem 9 and E11 / Theorem 11: the paper's new upper bounds.

func BenchmarkThm9_kDS(b *testing.B) {
	for _, k := range []int{2, 3} {
		for _, n := range []int{27, 64, 125} {
			g, _ := graph.PlantedDominatingSet(n, k, 0.1, uint64(n))
			b.Run(fmt.Sprintf("k=%d/n=%d", k, n), func(b *testing.B) {
				benchRounds(b, n, 8, func(nd *clique.Node) {
					domset.Find(nd, g.Row(nd.ID()), k)
				})
			})
		}
	}
}

func BenchmarkThm11_kVC(b *testing.B) {
	for _, k := range []int{3, 6} {
		for _, n := range []int{32, 128} {
			g, _ := graph.PlantedVertexCover(n, k, 0.4, uint64(n))
			b.Run(fmt.Sprintf("k=%d/n=%d", k, n), func(b *testing.B) {
				benchRounds(b, n, 1, func(nd *clique.Node) {
					vcover.Find(nd, g.Row(nd.ID()), k)
				})
			})
		}
	}
}

func BenchmarkFPT_kIS(b *testing.B) {
	for _, n := range []int{27, 64, 125} {
		g, _ := graph.PlantedIndependentSet(n, 3, 0.5, uint64(n))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchRounds(b, n, 8, func(nd *clique.Node) {
				subgraph.DetectIndependentSet(nd, g.Row(nd.ID()), 3)
			})
		})
	}
}

// ---------------------------------------------------------------------
// E13: substrate benchmarks.

func BenchmarkSub_Routing(b *testing.B) {
	for _, load := range []int{8, 32} {
		b.Run(fmt.Sprintf("load=%d", load), func(b *testing.B) {
			benchRounds(b, 32, 4, func(nd *clique.Node) {
				recs := make([]uint64, 0, 2*load)
				for i := 0; i < load; i++ {
					recs = append(recs, uint64((nd.ID()+i+1)%32), uint64(i))
				}
				comm.Route(nd, recs, 1, 9)
			})
		})
	}
}

func BenchmarkSub_AllBroadcast(b *testing.B) {
	benchRounds(b, 64, 4, func(nd *clique.Node) {
		comm.BroadcastAll(nd, make([]uint64, 64), 64)
	})
}

// ---------------------------------------------------------------------
// Ablation: router schedule on a skewed instance.

func BenchmarkAblation_RouterBalanced(b *testing.B) {
	benchRounds(b, 16, 4, func(nd *clique.Node) {
		var recs []uint64
		if nd.ID() == 0 {
			recs = make([]uint64, 0, 2*96)
			for i := 0; i < 96; i++ {
				recs = append(recs, 1, uint64(i))
			}
		}
		comm.Route(nd, recs, 1, 5)
	})
}

func BenchmarkAblation_RouterDirect(b *testing.B) {
	benchRounds(b, 16, 4, func(nd *clique.Node) {
		var recs []uint64
		if nd.ID() == 0 {
			recs = make([]uint64, 0, 2*96)
			for i := 0; i < 96; i++ {
				recs = append(recs, 1, uint64(i))
			}
		}
		comm.RouteDirect(nd, recs, 1)
	})
}

// Ablation: engine determinism under different bandwidth budgets.

func BenchmarkAblation_Bandwidth(b *testing.B) {
	g := graph.Gnp(64, 0.5, 7)
	for _, wpp := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("wpp=%d", wpp), func(b *testing.B) {
			benchRounds(b, 64, wpp, func(nd *clique.Node) {
				row := make([]uint64, 64)
				for j := 0; j < 64; j++ {
					row[j] = clique.BoolWord(g.HasEdge(nd.ID(), j))
				}
				comm.BroadcastAll(nd, row, 64)
			})
		})
	}
}

// Sanity benchmark: the exponent fit used by the harness.

func BenchmarkFitExponent(b *testing.B) {
	ns := []int{27, 64, 125, 216}
	rounds := []int{9, 12, 15, 18}
	for i := 0; i < b.N; i++ {
		fgc.FitExponent(ns, rounds)
	}
}

// Extension benchmark: the labelling problems.

func BenchmarkExt_LabellingCheck(b *testing.B) {
	p := nondet.MaximalMatchingProblem()
	for _, n := range []int{16, 64} {
		g := graph.Gnp(n, 0.4, uint64(n))
		z := p.Solve(g)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v, err := nondet.RunVerifier(clique.Config{N: n, Backend: *benchBackend}, g, p.Check, z)
				if err != nil || !v.Accepted {
					b.Fatal("checker rejected a greedy maximal matching")
				}
			}
		})
	}
}
