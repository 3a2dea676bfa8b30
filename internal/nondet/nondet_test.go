package nondet

import (
	"testing"

	"repro/internal/clique"
	"repro/internal/graph"
)

func accept(t *testing.T, g *graph.Graph, alg Algorithm, z Labelling, wpp int) Verdict {
	t.Helper()
	v, err := RunVerifier(clique.Config{N: g.N, WordsPerPair: wpp}, g, alg, z)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestKColoringVerifier(t *testing.T) {
	g, _ := graph.PlantedColoring(8, 3, 0.7, 5)
	z := KColoringProver(g, 3)
	if z == nil {
		t.Fatal("prover failed on 3-colourable graph")
	}
	if !accept(t, g, KColoringVerifier(3), z, 1).Accepted {
		t.Error("honest 3-colouring rejected")
	}
	// Corrupt one colour to collide with a neighbour.
	bad := make(Labelling, g.N)
	copy(bad, z)
	var u, v int = -1, -1
	g.Edges(func(a, b int) {
		if u < 0 {
			u, v = a, b
		}
	})
	bad[u] = []uint64{bad[v][0]}
	if accept(t, g, KColoringVerifier(3), bad, 1).Accepted {
		t.Error("monochromatic edge accepted")
	}
	// C5 is not 2-colourable: no certificate exists.
	c5 := graph.Cycle(5)
	found, _, err := ExhaustiveDecide(clique.Config{N: 5}, c5, KColoringVerifier(2), WordSpace(2))
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Error("exhaustive search found a 2-colouring certificate for C5")
	}
	// ...but it is 3-colourable, and exhaustive search agrees.
	found3, witness, err := ExhaustiveDecide(clique.Config{N: 5}, c5, KColoringVerifier(3), WordSpace(3))
	if err != nil {
		t.Fatal(err)
	}
	if !found3 {
		t.Error("exhaustive search missed a 3-colouring certificate for C5")
	}
	colors := make([]int, 5)
	for i := range colors {
		colors[i] = int(witness[i][0])
	}
	if !graph.IsProperColoring(c5, colors, 3) {
		t.Errorf("witness %v is not a proper colouring", witness)
	}
}

func TestKColoringVerifierConstantRounds(t *testing.T) {
	// NCLIQUE(1) membership: the verifier's round count is 1 regardless
	// of n.
	for _, n := range []int{6, 12, 24} {
		g, _ := graph.PlantedColoring(n, 3, 0.6, uint64(n))
		z := KColoringProver(g, 3)
		v := accept(t, g, KColoringVerifier(3), z, 1)
		if v.Result.Stats.Rounds != 1 {
			t.Errorf("n=%d: verifier used %d rounds, want 1", n, v.Result.Stats.Rounds)
		}
	}
}

func TestHamPathVerifier(t *testing.T) {
	g, _ := graph.PlantedHamiltonianPath(8, 0.15, 9)
	z := HamPathProver(g)
	if z == nil {
		t.Fatal("prover failed on graph with planted Hamiltonian path")
	}
	if !accept(t, g, HamPathVerifier(), z, 1).Accepted {
		t.Error("honest Hamiltonian path rejected")
	}
	// A permutation that is not a path must be rejected (star graph has
	// no Hamiltonian path on >= 4 nodes).
	star := graph.CompleteBipartite(1, 4)
	z2 := make(Labelling, star.N)
	for v := range z2 {
		z2[v] = []uint64{uint64(v)}
	}
	if accept(t, star, HamPathVerifier(), z2, 1).Accepted {
		t.Error("non-path certificate accepted")
	}
	// Duplicate positions must be rejected.
	dup := make(Labelling, g.N)
	copy(dup, z)
	dup[0] = append([]uint64(nil), z[1][0])
	if accept(t, g, HamPathVerifier(), dup, 1).Accepted {
		t.Error("duplicate positions accepted")
	}
}

func TestExhaustiveDecideMatchesOracle(t *testing.T) {
	// The "exists z" semantics on every 4-node graph for 2-colouring.
	for mask := 0; mask < 64; mask += 5 {
		g := graph.New(4)
		e := 0
		for u := 0; u < 4; u++ {
			for v := u + 1; v < 4; v++ {
				if mask&(1<<e) != 0 {
					g.AddEdge(u, v)
				}
				e++
			}
		}
		want := graph.IsKColorable(g, 2)
		got, _, err := ExhaustiveDecide(clique.Config{N: 4}, g, KColoringVerifier(2), WordSpace(2))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("mask %d: exhaustive = %v, oracle = %v", mask, got, want)
		}
	}
}

func TestLabellingSizes(t *testing.T) {
	z := Labelling{{1, 2, 3}, {4}, nil}
	if z.SizeWords() != 3 {
		t.Errorf("SizeWords = %d", z.SizeWords())
	}
	if z.SizeBits(16) != 3*4 {
		t.Errorf("SizeBits = %d", z.SizeBits(16))
	}
}

func TestTranscriptEncodeDecodeRoundTrip(t *testing.T) {
	g, _ := graph.PlantedColoring(6, 3, 0.6, 8)
	z := KColoringProver(g, 3)
	certs, err := TranscriptCertificate(clique.Config{N: g.N}, g, KColoringVerifier(3), z)
	if err != nil {
		t.Fatal(err)
	}
	for v := range certs {
		tr := DecodeTranscript(certs[v], v, g.N, 1, 1)
		if tr == nil {
			t.Fatalf("node %d: certificate does not decode", v)
		}
		re := EncodeTranscript(tr, g.N)
		if !wordsEqual(re, certs[v]) {
			t.Fatalf("node %d: re-encode differs", v)
		}
	}
	// Structural rejection cases.
	if DecodeTranscript(nil, 0, 6, 1, 1) != nil {
		t.Error("empty label decoded")
	}
	if DecodeTranscript([]uint64{5}, 0, 6, 1, 1) != nil {
		t.Error("over-long transcript decoded")
	}
	if DecodeTranscript(append(append([]uint64(nil), certs[0]...), 9), 0, 6, 1, 1) != nil {
		t.Error("trailing garbage accepted")
	}
}

// normalFormSetup builds the Theorem 3 pipeline for 3-colouring on a
// fixed graph.
func normalFormSetup(t *testing.T, seed uint64) (*graph.Graph, Algorithm, Labelling) {
	t.Helper()
	g, _ := graph.PlantedColoring(6, 3, 0.7, seed)
	alg := KColoringVerifier(3)
	z := KColoringProver(g, 3)
	if z == nil {
		t.Fatal("prover failed")
	}
	certs, err := TranscriptCertificate(clique.Config{N: g.N}, g, alg, z)
	if err != nil {
		t.Fatal(err)
	}
	return g, alg, certs
}

func TestNormalFormAcceptsHonestTranscripts(t *testing.T) {
	g, alg, certs := normalFormSetup(t, 31)
	b := NormalForm(alg, 1, WordSpace(3))
	v := accept(t, g, b, certs, 1)
	if !v.Accepted {
		t.Fatalf("normal form rejected honest transcripts: %v", v.NodeBits)
	}
	if v.Result.Stats.Rounds != 1 {
		t.Errorf("B used %d rounds, want T = 1", v.Result.Stats.Rounds)
	}
}

func TestNormalFormLabelSizeBound(t *testing.T) {
	// Theorem 3: labels are O(T n log n) bits = O(T n) words. For the
	// one-round colouring verifier: 1 header word + per peer 2 count
	// words + <= 2 payload words, i.e. < 5n words.
	g, _, certs := normalFormSetup(t, 32)
	if w := certs.SizeWords(); w > 5*g.N {
		t.Errorf("certificate uses %d words, exceeds 5n = %d", w, 5*g.N)
	}
}

func TestNormalFormRejectsTamperedTranscripts(t *testing.T) {
	g, alg, certs := normalFormSetup(t, 33)
	b := NormalForm(alg, 1, WordSpace(3))

	// Tamper with a payload word of node 2's transcript: replay
	// consistency (step 2) or the local search (step 3) must fail.
	bad := make(Labelling, len(certs))
	for i := range certs {
		bad[i] = append([]uint64(nil), certs[i]...)
	}
	// Find a nonzero-count slot and flip the word after it.
	words := bad[2]
	for i := 1; i < len(words)-1; i++ {
		if words[i] == 1 { // a count of one; next word is payload
			words[i+1] = (words[i+1] + 1) % 3
			break
		}
	}
	if accept(t, g, b, bad, 1).Accepted {
		t.Error("tampered transcript accepted")
	}
}

func TestNormalFormRejectsOnNoInstance(t *testing.T) {
	// C5 with 2 colours: take honest transcripts from a *different*
	// (colourable) graph and present them on C5 — the local search step
	// must fail because no original label reproduces the transcript on
	// C5's input... or replay fails. Either way B rejects.
	c5 := graph.Cycle(5)
	alg := KColoringVerifier(2)
	b := NormalForm(alg, 1, WordSpace(2))

	// Forge transcripts by running A on the 2-colourable C4-plus-isolated
	// graph with a valid colouring; shapes match (same n).
	even := graph.Cycle(4)
	evenPlus := graph.New(5)
	even.Edges(func(u, v int) { evenPlus.AddEdge(u, v) })
	z := KColoringProver(evenPlus, 2)
	forged, err := TranscriptCertificate(clique.Config{N: 5}, evenPlus, alg, z)
	if err != nil {
		t.Fatal(err)
	}
	if accept(t, c5, b, forged, 1).Accepted {
		t.Error("forged transcripts accepted on a no-instance")
	}
	// And malformed labels reject cleanly.
	junk := make(Labelling, 5)
	for i := range junk {
		junk[i] = []uint64{99, 98, 97}
	}
	if accept(t, c5, b, junk, 1).Accepted {
		t.Error("junk labels accepted")
	}
}

func TestNormalFormSoundnessExtractsOriginalLabel(t *testing.T) {
	// If B accepts, the per-node labels found in step 3 must constitute
	// an accepting labelling of A. We verify indirectly: B accepting on
	// a yes-instance implies A accepts some labelling, which the oracle
	// confirms is possible.
	g, alg, certs := normalFormSetup(t, 34)
	b := NormalForm(alg, 1, WordSpace(3))
	if !accept(t, g, b, certs, 1).Accepted {
		t.Fatal("B rejected honest certificate")
	}
	if !graph.IsKColorable(g, 3) {
		t.Fatal("B accepted but oracle says no accepting labelling exists")
	}
}
