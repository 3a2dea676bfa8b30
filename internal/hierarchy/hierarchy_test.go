package hierarchy

import (
	"testing"

	"repro/internal/clique"
	"repro/internal/graph"
	"repro/internal/nondet"
)

func TestGuessEncodeDecodeRoundTrip(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		g := graph.Gnp(9, 0.4, seed)
		got := DecodeGuess(EncodeGuess(g), g.N)
		if got == nil || !got.Equal(g) {
			t.Fatalf("seed %d: guess round trip failed", seed)
		}
	}
	// Asymmetric and reflexive relations are rejected.
	n := 4
	words := make([]uint64, (n*n+63)/64)
	words[0] |= 1 << 1 // edge 0->1 without 1->0
	if DecodeGuess(words, n) != nil {
		t.Error("asymmetric guess decoded")
	}
	words[0] = 1 // bit (0,0): self-loop
	if DecodeGuess(words, n) != nil {
		t.Error("reflexive guess decoded")
	}
	if DecodeGuess([]uint64{0, 0, 0}, 4) != nil {
		t.Error("wrong-shape guess decoded")
	}
}

// trianglePred is an arbitrary computable predicate standing in for "any
// decision problem L" in Theorem 7.
func trianglePred(g *graph.Graph) bool { return graph.HasTriangle(g) }

func runSigmaTwo(t *testing.T, g *graph.Graph, z1, z2 nondet.Labelling) bool {
	t.Helper()
	alg := SigmaTwoUniversal(trianglePred)
	bits := make([]bool, g.N)
	_, err := clique.Run(clique.Config{N: g.N}, func(nd *clique.Node) {
		labels := [][]uint64{nil, nil}
		if nd.ID() < len(z1) {
			labels[0] = z1[nd.ID()]
		}
		if nd.ID() < len(z2) {
			labels[1] = z2[nd.ID()]
		}
		bits[nd.ID()] = alg(nd, g.Row(nd.ID()), labels)
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

func allChallenges(n int, f func(z2 nondet.Labelling) bool) bool {
	z2 := make(nondet.Labelling, n)
	var rec func(v int) bool
	rec = func(v int) bool {
		if v == n {
			return f(z2)
		}
		for idx := 0; idx < n*n; idx++ {
			z2[v] = []uint64{uint64(idx)}
			if !rec(v + 1) {
				return false
			}
		}
		return true
	}
	return rec(0)
}

func TestSigmaTwoHonestProverAcceptsAllChallenges(t *testing.T) {
	// Theorem 7 completeness at n=3, exhaustively over the 9^3 = 729
	// universal assignments, on a yes- and a no-instance.
	yes := graph.Complete(3) // triangle
	no := graph.Path(3)      // no triangle
	honestYes := HonestGuess(yes)
	honestNo := HonestGuess(no)
	if !allChallenges(3, func(z2 nondet.Labelling) bool {
		return runSigmaTwo(t, yes, honestYes, z2)
	}) {
		t.Error("honest prover rejected on a yes-instance by some challenge")
	}
	// On a no-instance even the honest guess must be rejected (by the
	// predicate check), for every challenge.
	if !allChallenges(3, func(z2 nondet.Labelling) bool {
		return !runSigmaTwo(t, no, honestNo, z2)
	}) {
		t.Error("no-instance accepted under some challenge despite honest guess")
	}
}

func TestSigmaTwoCheatingProverIsCaught(t *testing.T) {
	// A no-instance where node 1 guesses a graph WITH a triangle: the
	// challenge that audits a fabricated edge must reject.
	no := graph.Path(4)
	fake := graph.Complete(4)
	z1 := HonestGuess(no)
	z1[1] = EncodeGuess(fake)

	// Find a pair where the fake guess differs from the truth.
	var a, b int = -1, -1
	for u := 0; u < 4 && a < 0; u++ {
		for v := 0; v < 4; v++ {
			if u != v && fake.HasEdge(u, v) != no.HasEdge(u, v) {
				a, b = u, v
				break
			}
		}
	}
	z2 := CatchingChallenge(4, 1, a, b)
	if runSigmaTwo(t, no, z1, z2) {
		t.Error("cheating prover survived the catching challenge")
	}
	// The same cheat with an irrelevant challenge may pass step (3) but
	// must then still be caught... only if the audited endpoint checks;
	// with challenge (0,0) everywhere the consistency checks all pass,
	// and the cheater's local predicate check accepts — demonstrating
	// exactly why the universal quantifier is needed.
	lazy := CatchingChallenge(4, 1, 0, 0)
	lazy[1] = []uint64{0}
	accepted := runSigmaTwo(t, no, z1, lazy)
	// The honest nodes' guesses disagree with the cheater's announced
	// bit only if the audit touches a disputed pair; pair (0,0) is
	// undisputed, but honest nodes ALSO check the cheater's announced
	// bit against their own guesses for pair (0,1)... with index 0 the
	// audit is pair (0,0), consistent everywhere; nodes accept iff
	// their own predicate check passes. Honest guesses have no
	// triangle, so they reject anyway.
	if accepted {
		t.Error("run accepted although honest nodes' predicate check must reject")
	}
}

func TestSigmaTwoSharedWrongGuessCaughtByInputCheck(t *testing.T) {
	// ALL nodes guess the same wrong graph (with a triangle) on a
	// triangle-free input: announced bits are mutually consistent, so
	// only the audit-against-input check can catch it — and it does,
	// when the challenge points at a fabricated edge.
	no := graph.Path(3)
	fake := graph.Complete(3)
	z1 := make(nondet.Labelling, 3)
	for v := range z1 {
		z1[v] = EncodeGuess(fake)
	}
	// Fabricated edge (0, 2): audit it.
	z2 := CatchingChallenge(3, 0, 0, 2)
	if runSigmaTwo(t, no, z1, z2) {
		t.Error("globally shared wrong guess survived an input audit")
	}
	// And there must exist SOME catching challenge (Theorem 7
	// soundness): search all of them.
	caught := false
	allChallenges(3, func(z2 nondet.Labelling) bool {
		if !runSigmaTwo(t, no, z1, z2) {
			caught = true
			return false
		}
		return true
	})
	if !caught {
		t.Error("no challenge catches the shared wrong guess")
	}
}

func TestEvalSigmaTwoOnRestrictedGuessSpace(t *testing.T) {
	// Full exists-forall evaluation with the existential space
	// restricted to {honest, cheat}: on the yes-instance the honest
	// branch survives all challenges; on the no-instance both branches
	// fail some challenge (or the predicate).
	yes := graph.Complete(3)
	no := graph.Path(3)
	alg := SigmaTwoUniversal(trianglePred)

	space := func(g *graph.Graph) nondet.LabelSpace {
		honest := EncodeGuess(g)
		cheat := EncodeGuess(graph.Complete(3))
		return func(emit func([]uint64) bool) {
			if !emit(honest) {
				return
			}
			emit(cheat)
		}
	}
	challenge := nondet.WordSpace(9)

	got, err := Eval(clique.Config{N: 3}, yes, alg, []Level{
		{Exists: true, Space: space(yes)},
		{Exists: false, Space: challenge},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("Sigma_2 evaluation rejected the yes-instance")
	}
	got, err = Eval(clique.Config{N: 3}, no, alg, []Level{
		{Exists: true, Space: space(no)},
		{Exists: false, Space: challenge},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Error("Sigma_2 evaluation accepted the no-instance")
	}
}

func TestEvalQuantifierDuality(t *testing.T) {
	// not (exists z1 forall z2 A) == forall z1 exists z2 (not A):
	// evaluate both sides on a micro instance with a nontrivial A.
	g := graph.Path(2)
	a := func(nd clique.Endpoint, row graph.Bitset, labels [][]uint64) bool {
		// Accept iff the two levels' labels agree at this node.
		nd.Tick() // constant-round algorithms may still communicate
		return len(labels) == 2 && len(labels[0]) == 1 && len(labels[1]) == 1 &&
			labels[0][0] == labels[1][0]
	}
	notA := func(nd clique.Endpoint, row graph.Bitset, labels [][]uint64) bool {
		return !a(nd, row, labels)
	}
	space := nondet.WordSpace(2)
	sigma, err := Eval(clique.Config{N: 2}, g, a, SigmaPrefix(2, space))
	if err != nil {
		t.Fatal(err)
	}
	pi, err := Eval(clique.Config{N: 2}, g, notA, PiPrefix(2, space))
	if err != nil {
		t.Fatal(err)
	}
	if sigma == pi {
		t.Errorf("duality violated: Sigma_2(A) = %v, Pi_2(not A) = %v", sigma, pi)
	}
}

func TestEvalDegeneratesToNondetAtK1(t *testing.T) {
	// Sigma_1 = NCLIQUE(1): evaluating a 1-level formula must agree with
	// nondet.ExhaustiveDecide.
	g := graph.Cycle(5)
	verifier := nondet.KColoringVerifier(3)
	wrapped := func(nd clique.Endpoint, row graph.Bitset, labels [][]uint64) bool {
		return verifier(nd, row, labels[0])
	}
	viaEval, err := Eval(clique.Config{N: 5}, g, wrapped, SigmaPrefix(1, nondet.WordSpace(3)))
	if err != nil {
		t.Fatal(err)
	}
	viaNondet, _, err := nondet.ExhaustiveDecide(clique.Config{N: 5}, g, verifier, nondet.WordSpace(3))
	if err != nil {
		t.Fatal(err)
	}
	if viaEval != viaNondet {
		t.Errorf("Sigma_1 evaluation (%v) disagrees with NCLIQUE search (%v)", viaEval, viaNondet)
	}
	if !viaEval {
		t.Error("C5 is 3-colourable; Sigma_1 should accept")
	}
}

func TestLogBudgetExcludesGuessLabels(t *testing.T) {
	// The heart of the Theorem 7 / Theorem 8 contrast: the
	// guess-the-graph labels need n^2 bits, which eventually exceeds
	// every c * n * log n budget.
	c := 2
	violated := false
	for n := 4; n <= 4096; n *= 2 {
		if GuessBits(n) > c*n*clique.WordBits(n) {
			violated = true
			break
		}
	}
	if !violated {
		t.Error("guess labels fit the logarithmic budget at every tested n")
	}
	// Concretely on actual labels, each word counted at the model's
	// ceil(log2 n) bits: a packed guess holds n^2/64 words, past the
	// c * n * ceil(log2 n)-bit cap once n > 64c.
	const n = 256
	for v, l := range HonestGuess(graph.Gnp(n, 0.5, 3)) {
		if len(l)*clique.WordBits(n) <= c*n*clique.WordBits(n) {
			t.Fatalf("node %d's n^2-bit guess fits the O(n log n) budget", v)
		}
	}
}

func TestSigmaTwoRunsInBroadcastCongestedClique(t *testing.T) {
	// The Theorem 7 protocol only broadcasts (index round, bit round),
	// so it works verbatim in the broadcast congested clique.
	g := graph.Complete(4)
	alg := SigmaTwoUniversal(trianglePred)
	z1 := HonestGuess(g)
	z2 := CatchingChallenge(4, 0, 1, 2)
	bits := make([]bool, g.N)
	_, err := clique.Run(clique.Config{N: g.N, BroadcastOnly: true}, func(nd *clique.Node) {
		bits[nd.ID()] = alg(nd, g.Row(nd.ID()), [][]uint64{z1[nd.ID()], z2[nd.ID()]})
	})
	if err != nil {
		t.Fatal(err)
	}
	for v, b := range bits {
		if !b {
			t.Errorf("node %d rejected honest proof in broadcast model", v)
		}
	}
}
