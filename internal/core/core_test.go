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

func TestEdgeLabellingVerify(t *testing.T) {
	// Toy edge labelling problem: the label of {u, v} must equal
	// (u + v) mod 3. A valid labelling verifies; a corrupted or
	// inconsistent one does not.
	p := EdgeLabellingProblem{
		Name:     "sum-mod-3",
		MaxLabel: 3,
		Allowed: func(n, u, v int, row graph.Bitset, label uint64) bool {
			return label == uint64((u+v)%3)
		},
	}
	n := 6
	g := graph.Gnp(n, 0.5, 2)
	good := NewEdgeLabelling(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			good.Set(u, v, uint64((u+v)%3))
		}
	}
	run := func(l EdgeLabelling) bool {
		bits := make([]bool, n)
		_, err := clique.Run(clique.Config{N: n}, func(nd *clique.Node) {
			bits[nd.ID()] = VerifyEdgeLabelling(nd, g.Row(nd.ID()), p, l[nd.ID()])
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range bits {
			if !b {
				return false
			}
		}
		return true
	}
	if !run(good) {
		t.Error("valid labelling rejected")
	}
	bad := NewEdgeLabelling(n)
	for u := 0; u < n; u++ {
		copy(bad[u], good[u])
	}
	bad.Set(1, 2, uint64((1+2)%3+1)%3)
	if run(bad) {
		t.Error("corrupted labelling accepted")
	}
	// One-sided (inconsistent) labelling.
	oneSided := NewEdgeLabelling(n)
	for u := 0; u < n; u++ {
		copy(oneSided[u], good[u])
	}
	oneSided[3][4] = (good[3][4] + 1) % 3 // only node 3's view changes
	if run(oneSided) {
		t.Error("inconsistent labelling accepted")
	}
}

func TestSolveEdgeLabellingTrivial(t *testing.T) {
	// Solvable toy problem: label must be 1 iff {u,v} is an input edge.
	p := EdgeLabellingProblem{
		Name:     "indicator",
		MaxLabel: 2,
		Allowed: func(n, u, v int, row graph.Bitset, label uint64) bool {
			want := uint64(0)
			if row.Has(v) {
				want = 1
			}
			return label == want
		},
	}
	n := 5
	g := graph.Gnp(n, 0.5, 7)
	rows := make([][]uint64, n)
	_, err := clique.Run(clique.Config{N: n}, func(nd *clique.Node) {
		rows[nd.ID()] = SolveEdgeLabellingTrivial(nd, g.Row(nd.ID()), p)
	})
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < n; u++ {
		if rows[u] == nil {
			t.Fatal("solver found no labelling for a satisfiable problem")
		}
		for v := 0; v < n; v++ {
			if u == v {
				continue
			}
			want := uint64(0)
			if g.HasEdge(u, v) {
				want = 1
			}
			if rows[u][v] != want {
				t.Errorf("label(%d,%d) = %d, want %d", u, v, rows[u][v], want)
			}
		}
	}
	// Unsatisfiable problem: labels must be both 0 and 1.
	bad := EdgeLabellingProblem{
		Name:     "contradiction",
		MaxLabel: 2,
		Allowed: func(n, u, v int, row graph.Bitset, label uint64) bool {
			if u < v {
				return label == 0
			}
			return label == 1
		},
	}
	_, err = clique.Run(clique.Config{N: 4}, func(nd *clique.Node) {
		if got := SolveEdgeLabellingTrivial(nd, graph.New(4).Row(nd.ID()), bad); got != nil {
			nd.Fail("contradictory problem solved: %v", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCompileNCLIQUE1RoundTrip(t *testing.T) {
	// Theorem 6 completeness: transcripts of an accepting k-colouring
	// run yield labels that every node's CheckRow accepts and that the
	// compiled verifier accepts in one round. Soundness of the row
	// check: if sender s claims to have sent receiver r a colour other
	// than the one it sent everyone else, the labelling stays consistent
	// but no colour reproduces s's row, so s rejects. r cannot tell: its
	// row is realisable, so only a full run catches the forgery.
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
