package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/clique"
	"repro/internal/graph"
	"repro/internal/nondet"
	"repro/internal/subgraph"
	"repro/internal/vcover"
)

func instances(n int, count int) []*graph.Graph {
	var out []*graph.Graph
	for seed := uint64(0); seed < uint64(count); seed++ {
		out = append(out, graph.Gnp(n, 0.3+0.05*float64(seed), seed))
	}
	return out
}

func TestCheckSolvesTriangleDetection(t *testing.T) {
	p := Problem{Name: "triangle", Contains: graph.HasTriangle}
	s := func(nd clique.Endpoint, row graph.Bitset) bool {
		return subgraph.DetectTriangle(nd, row)
	}
	cls := CLIQUE("n^{1/3}", func(n int) int {
		r := 1
		for r*r*r < n {
			r++
		}
		return r
	})
	conf := CheckSolves(clique.Config{WordsPerPair: 4}, p, s, cls, 40, instances(12, 5))
	if !conf.Ok() {
		t.Fatalf("violations: %v", conf.Violations)
	}
	if conf.MaxRounds == 0 {
		t.Error("no rounds recorded")
	}
}

func TestCheckSolvesCatchesWrongAnswers(t *testing.T) {
	p := Problem{Name: "triangle", Contains: graph.HasTriangle}
	s := func(nd clique.Endpoint, row graph.Bitset) bool {
		nd.Tick()
		return false // always says no
	}
	cls := CLIQUE("1", func(n int) int { return 1 })
	withTriangle := graph.Complete(6)
	conf := CheckSolves(clique.Config{}, p, s, cls, 1, []*graph.Graph{withTriangle})
	if conf.Ok() {
		t.Fatal("constant-no solver passed on K6")
	}
	if !strings.Contains(conf.Violations[0], "oracle") {
		t.Errorf("unexpected violation: %v", conf.Violations)
	}
}

func TestCheckSolvesCatchesRoundBreach(t *testing.T) {
	p := Problem{Name: "trivial", Contains: func(*graph.Graph) bool { return true }}
	s := func(nd clique.Endpoint, row graph.Bitset) bool {
		for i := 0; i < 10; i++ {
			nd.Tick()
		}
		return true
	}
	cls := CLIQUE("1", func(n int) int { return 1 })
	conf := CheckSolves(clique.Config{}, p, s, cls, 2, instances(5, 1))
	if conf.Ok() {
		t.Fatal("10-round solver passed a 2-round budget")
	}
}

func TestCheckSolvesVertexCoverFPT(t *testing.T) {
	// Theorem 11 as a class-membership statement: k-VC for k=3 is in
	// CLIQUE(1) up to the constant 1+k.
	k := 3
	p := Problem{Name: "3-VC", Contains: func(g *graph.Graph) bool {
		return graph.HasVertexCoverOfSize(g, k)
	}}
	s := func(nd clique.Endpoint, row graph.Bitset) bool {
		return vcover.Decide(nd, row, k)
	}
	cls := CLIQUE("1", func(n int) int { return 1 })
	conf := CheckSolves(clique.Config{}, p, s, cls, 1+k, instances(14, 4))
	if !conf.Ok() {
		t.Fatalf("violations: %v", conf.Violations)
	}
}

func TestCheckNondetSolves(t *testing.T) {
	k := 3
	p := Problem{Name: "3-colourability", Contains: func(g *graph.Graph) bool {
		return graph.IsKColorable(g, k)
	}}
	cls := NCLIQUE("1", func(n int) int { return 1 })
	// Mix of yes (planted colourable) and no (odd wheel-ish) instances,
	// all tiny so the exhaustive no-side stays cheap.
	g1, _ := graph.PlantedColoring(5, 3, 0.8, 1)
	no := graph.Complete(4) // K4 needs 4 colours
	conf := CheckNondetSolves(clique.Config{}, p, nondet.KColoringVerifier(k),
		func(g *graph.Graph) nondet.Labelling { return nondet.KColoringProver(g, k) },
		nondet.WordSpace(uint64(k)), cls, 1, []*graph.Graph{g1, no})
	if !conf.Ok() {
		t.Fatalf("violations: %v", conf.Violations)
	}
}

func TestCompileNCLIQUE1RoundTrip(t *testing.T) {
	// Theorem 6 completeness: transcripts of an accepting k-colouring
	// run yield labels that every node's CheckRow accepts and that the
	// compiled verifier accepts in one round. Soundness of the row
	// check: if sender s claims to have sent receiver r a colour other
	// than the one it sent everyone else, the labelling stays consistent
	// but no colour reproduces s's row, so s rejects. r cannot tell: its
	// row is realisable, so only a full run catches the forgery. Labels
	// that disagree across an edge are rejected by the consistency round
	// even when every row is realisable.
	const k = 3
	alg := nondet.KColoringVerifier(k)
	compiled := CompileNCLIQUE1("kcol-canonical", alg, 1, nondet.WordSpace(k), k)
	for _, n := range []int{5, 8, 12} {
		for _, backend := range clique.Backends() {
			t.Run(fmt.Sprintf("n=%d/%s", n, backend), func(t *testing.T) {
				g, _ := graph.PlantedColoring(n, k, 0.7, uint64(n)+13)
				z := nondet.KColoringProver(g, k)
				if z == nil {
					t.Fatal("prover failed")
				}
				cfg := clique.Config{N: n, Backend: backend}
				rec := cfg
				rec.RecordTranscript = true
				verdict, err := nondet.RunVerifier(rec, g, alg, z)
				if err != nil || !verdict.Accepted {
					t.Fatalf("accepting run failed: %v %v", err, verdict.Accepted)
				}
				trs := verdict.Result.Transcripts

				// run returns each node's CheckRow and VerifyCompiled
				// verdicts on l, and the run's round count.
				run := func(l EdgeLabelling) (rowOK, verified []bool, rounds int) {
					rowOK, verified = make([]bool, n), make([]bool, n)
					res, err := clique.Run(cfg, func(nd *clique.Node) {
						me := nd.ID()
						rowOK[me] = compiled.CheckRow(nd, g.Row(me), l[me])
						verified[me] = VerifyCompiled(nd, g.Row(me), compiled, l[me])
					})
					if err != nil {
						t.Fatal(err)
					}
					return rowOK, verified, res.Stats.Rounds
				}

				honest := LabelsFromTranscripts(trs, 1, k)
				rowOK, verified, rounds := run(honest)
				for v := 0; v < n; v++ {
					if !rowOK[v] || !verified[v] {
						t.Errorf("node %d rejected honest transcript labels (row %v, verify %v)", v, rowOK[v], verified[v])
					}
				}
				if rounds != 1 {
					t.Errorf("compiled verification took %d rounds, want 1", rounds)
				}

				// Consistency: node a's row comes from the accepting
				// run with every colour shifted by one, all other rows
				// from the honest run. Every row is realisable on its
				// own, so only the consistency round can reject.
				shifted := make(nondet.Labelling, n)
				for v := range z {
					shifted[v] = []uint64{(z[v][0] + 1) % k}
				}
				sv, err := nondet.RunVerifier(rec, g, alg, shifted)
				if err != nil || !sv.Accepted {
					t.Fatalf("shifted colouring run failed: %v %v", err, sv.Accepted)
				}
				a := n / 2
				mixed := slices.Clone(honest)
				mixed[a] = LabelsFromTranscripts(sv.Result.Transcripts, 1, k)[a]
				rowOK, verified, _ = run(mixed)
				for v := 0; v < n; v++ {
					if !rowOK[v] {
						t.Errorf("node %d rejected a realisable row of the mixed labelling", v)
					}
				}
				if !slices.Contains(verified, false) {
					t.Errorf("labels disagreeing on node %d's edges accepted by the compiled verifier", a)
				}

				for _, sr := range [][2]int{{0, n - 1}, {n - 1, 0}} {
					s, r := sr[0], sr[1]
					// A colour that is not s's own (so s's row is
					// unrealisable) and not r's (so r still accepts).
					fake := (z[s][0] + 1) % k
					if fake == z[r][0] {
						fake = (fake + 1) % k
					}
					tr := *trs[s]
					tr.Rounds = slices.Clone(tr.Rounds)
					tr.Rounds[0].Sent = slices.Clone(tr.Rounds[0].Sent)
					tr.Rounds[0].Sent[r] = []uint64{fake}
					forgedTrs := slices.Clone(trs)
					forgedTrs[s] = &tr
					forged := LabelsFromTranscripts(forgedTrs, 1, k)
					if forged[s][r] == honest[s][r] {
						t.Fatalf("forgery %d->%d left the label unchanged", s, r)
					}

					rowOK, verified, _ := run(forged)
					if rowOK[s] {
						t.Errorf("sender %d accepted a row claiming it sent %d colour %d", s, r, fake)
					}
					if !rowOK[r] {
						t.Errorf("receiver %d rejected a realisable row", r)
					}
					all := true
					for _, ok := range verified {
						all = all && ok
					}
					if all {
						t.Errorf("forgery %d->%d accepted by the full compiled verifier", s, r)
					}
				}
			})
		}
	}
}
