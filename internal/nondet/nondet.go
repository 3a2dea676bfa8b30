package nondet

import (
	"fmt"

	"repro/internal/clique"
	"repro/internal/graph"
)

// Labelling assigns each node a certificate of whole words (the model's
// O(log n)-bit units); entry v belongs to node v.
type Labelling [][]uint64

// SizeWords returns the maximum label length in words.
func (z Labelling) SizeWords() int {
	max := 0
	for _, l := range z {
		if len(l) > max {
			max = len(l)
		}
	}
	return max
}

// SizeBits returns the labelling size in model bits for an n-node clique.
func (z Labelling) SizeBits(n int) int {
	return z.SizeWords() * clique.WordBits(n)
}

// Algorithm is a nondeterministic congested clique algorithm in verifier
// form: the deterministic per-node computation given the node's label.
// The return value is the node's accept bit.
type Algorithm func(nd clique.Endpoint, row graph.Bitset, label []uint64) bool

// Verdict is the result of running a verifier on a labelled input.
type Verdict struct {
	// Accepted is true iff every node accepted.
	Accepted bool
	// NodeBits are the per-node outputs.
	NodeBits []bool
	// Result carries the run's cost statistics and (if requested)
	// transcripts.
	Result *clique.Result
}

// RunVerifier executes A on (g, z) and reports global acceptance.
func RunVerifier(cfg clique.Config, g *graph.Graph, alg Algorithm, z Labelling) (Verdict, error) {
	if cfg.N == 0 {
		cfg.N = g.N
	}
	if cfg.N != g.N {
		return Verdict{}, fmt.Errorf("nondet: config N=%d but graph has %d nodes", cfg.N, g.N)
	}
	bits := make([]bool, g.N)
	res, err := clique.Run(cfg, func(nd *clique.Node) {
		var label []uint64
		if nd.ID() < len(z) {
			label = z[nd.ID()]
		}
		bits[nd.ID()] = alg(nd, g.Row(nd.ID()), label)
	})
	if err != nil {
		return Verdict{}, err
	}
	all := true
	for _, b := range bits {
		all = all && b
	}
	return Verdict{Accepted: all, NodeBits: bits, Result: res}, nil
}

// LabelSpace enumerates candidate labels for a single node; emit returns
// false to stop early. Spaces must be finite for exhaustive search.
type LabelSpace func(emit func(label []uint64) bool)

// WordSpace is the label space of all single-word labels with value
// below max.
func WordSpace(max uint64) LabelSpace {
	return func(emit func([]uint64) bool) {
		for w := uint64(0); w < max; w++ {
			if !emit([]uint64{w}) {
				return
			}
		}
	}
}

// ExhaustiveDecide realises the "exists z" semantics by brute force:
// it enumerates every labelling with per-node labels drawn from space
// and reports whether any is accepted. Exponential in n; usable only on
// micro instances, which is exactly how the tests exercise the
// definition of NCLIQUE.
func ExhaustiveDecide(cfg clique.Config, g *graph.Graph, alg Algorithm, space LabelSpace) (bool, Labelling, error) {
	var all [][]uint64
	space(func(l []uint64) bool {
		all = append(all, l)
		return true
	})
	z := make(Labelling, g.N)
	var found Labelling
	var rec func(v int) (bool, error)
	rec = func(v int) (bool, error) {
		if v == g.N {
			verdict, err := RunVerifier(cfg, g, alg, z)
			if err != nil {
				return false, err
			}
			if verdict.Accepted {
				found = make(Labelling, g.N)
				for i := range z {
					found[i] = append([]uint64(nil), z[i]...)
				}
				return true, nil
			}
			return false, nil
		}
		for _, l := range all {
			z[v] = l
			ok, err := rec(v + 1)
			if ok || err != nil {
				return ok, err
			}
		}
		return false, nil
	}
	ok, err := rec(0)
	return ok, found, err
}
