// Nondeterminism in the congested clique (Section 5 of the paper):
// NCLIQUE(1) certificates for NP-complete problems, and the Theorem 3
// normal form that converts any certificate into communication
// transcripts of O(T n log n) bits.
//
// The pipeline shown here for 3-colouring:
//
//	prover -> certificate z -> run A(G, z) recording transcripts
//	       -> transcript labels -> normal-form verifier B accepts
//	       -> tamper one word  -> B rejects
package main

import (
	"fmt"
	"log"

	"repro/internal/clique"
	"repro/internal/graph"
	"repro/internal/nondet"
)

func main() {
	const k = 3
	g, _ := graph.PlantedColoring(10, k, 0.7, 99)
	alg := nondet.KColoringVerifier(k)

	// The original certificate: one colour per node.
	z := nondet.KColoringProver(g, k)
	if z == nil {
		log.Fatal("graph not 3-colourable (unexpected for a planted instance)")
	}
	verdict, err := nondet.RunVerifier(clique.Config{N: g.N}, g, alg, z)
	must(err)
	fmt.Printf("A with honest colouring: accepted=%v in %d round(s), labels %d bits/node\n",
		verdict.Accepted, verdict.Result.Stats.Rounds, z.SizeBits(g.N))
	want(verdict.Accepted, "A rejected the honest colouring")

	// Theorem 3: transcripts as certificates.
	certs, err := nondet.TranscriptCertificate(clique.Config{N: g.N}, g, alg, z)
	must(err)
	fmt.Printf("transcript certificate: %d words/node = %d bits/node (bound O(T n log n) = %d)\n",
		certs.SizeWords(), certs.SizeBits(g.N), 1*g.N*clique.WordBits(g.N)*5)

	b := nondet.NormalForm(alg, 1, nondet.WordSpace(k))
	verdict, err = nondet.RunVerifier(clique.Config{N: g.N}, g, b, certs)
	must(err)
	fmt.Printf("normal-form verifier B: accepted=%v in %d round(s)\n",
		verdict.Accepted, verdict.Result.Stats.Rounds)
	want(verdict.Accepted, "B rejected the honest transcript")

	// Tamper with one transcript word.
	bad := make(nondet.Labelling, len(certs))
	for i := range certs {
		bad[i] = append([]uint64(nil), certs[i]...)
	}
	for i := 1; i < len(bad[4])-1; i++ {
		if bad[4][i] == 1 { // a count-1 slot; the next word is a colour
			bad[4][i+1] = (bad[4][i+1] + 1) % k
			break
		}
	}
	verdict, err = nondet.RunVerifier(clique.Config{N: g.N}, g, b, bad)
	must(err)
	fmt.Printf("B on tampered transcript: accepted=%v (want false)\n", verdict.Accepted)
	want(!verdict.Accepted, "B accepted the tampered transcript")

	// A second NCLIQUE(1) member: Hamiltonian path.
	gh, _ := graph.PlantedHamiltonianPath(9, 0.1, 5)
	zh := nondet.HamPathProver(gh)
	verdict, err = nondet.RunVerifier(clique.Config{N: gh.N}, gh, nondet.HamPathVerifier(), zh)
	must(err)
	fmt.Printf("\nHamiltonian path certificate: accepted=%v in %d round(s)\n",
		verdict.Accepted, verdict.Result.Stats.Rounds)
	want(verdict.Accepted, "the Hamiltonian path certificate was rejected")
}

// want exits 1 with msg when a verdict is not the one the pipeline
// promises, so a broken verifier fails the example instead of printing
// a wrong line.
func want(ok bool, msg string) {
	if !ok {
		log.Fatal(msg)
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
