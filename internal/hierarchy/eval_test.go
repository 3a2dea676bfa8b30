package hierarchy

import (
	"fmt"

	"repro/internal/clique"
	"repro/internal/graph"
	"repro/internal/nondet"
)

// Level is one quantifier level of a hierarchy formula.
type Level struct {
	// Exists selects the existential quantifier; false means universal.
	Exists bool
	// Space enumerates the candidate per-node labels at this level.
	Space nondet.LabelSpace
}

// SigmaPrefix returns the Sigma_k quantifier pattern (exists, forall,
// exists, ...) over a common label space.
func SigmaPrefix(k int, space nondet.LabelSpace) []Level {
	levels := make([]Level, k)
	for i := range levels {
		levels[i] = Level{Exists: i%2 == 0, Space: space}
	}
	return levels
}

// PiPrefix returns the Pi_k pattern (forall, exists, ...).
func PiPrefix(k int, space nondet.LabelSpace) []Level {
	levels := make([]Level, k)
	for i := range levels {
		levels[i] = Level{Exists: i%2 == 1, Space: space}
	}
	return levels
}

// Eval decides whether
//
//	Q_1 z_1 Q_2 z_2 ... Q_k z_k : A(G, z_1, ..., z_k) = 1
//
// by exhaustive enumeration of the per-node label assignments at every
// level. The cost is |space|^(n*k) runs: this realises the *definition*
// on micro instances and is the ground truth the protocol-level results
// are tested against.
func Eval(cfg clique.Config, g *graph.Graph, alg KLabelAlgorithm, levels []Level) (bool, error) {
	assigned := make([]nondet.Labelling, len(levels))
	var rec func(level int) (bool, error)
	rec = func(level int) (bool, error) {
		if level == len(levels) {
			return runK(cfg, g, alg, assigned)
		}
		lv := levels[level]
		// Enumerate all labellings of this level: per-node choice from
		// the level's space.
		var all [][]uint64
		lv.Space(func(l []uint64) bool {
			all = append(all, append([]uint64(nil), l...))
			return true
		})
		if len(all) == 0 {
			return false, fmt.Errorf("hierarchy: empty label space at level %d", level)
		}
		z := make(nondet.Labelling, g.N)
		var enum func(v int) (bool, error)
		enum = func(v int) (bool, error) {
			if v == g.N {
				assigned[level] = z
				inner, err := rec(level + 1)
				if err != nil {
					return false, err
				}
				// Short-circuit semantics: an existential level needs
				// one success; a universal level needs no failure.
				if lv.Exists {
					return inner, nil
				}
				return !inner, nil
			}
			for _, l := range all {
				z[v] = l
				hit, err := enum(v + 1)
				if hit || err != nil {
					return hit, err
				}
			}
			return false, nil
		}
		hit, err := enum(0)
		if err != nil {
			return false, err
		}
		if lv.Exists {
			return hit, nil // found an accepted assignment
		}
		return !hit, nil // hit means "found a rejected assignment"
	}
	return rec(0)
}

// runK executes A once under the given labellings and reports global
// acceptance.
func runK(cfg clique.Config, g *graph.Graph, alg KLabelAlgorithm, zs []nondet.Labelling) (bool, error) {
	if cfg.N == 0 {
		cfg.N = g.N
	}
	bits := make([]bool, g.N)
	_, err := clique.Run(cfg, func(nd *clique.Node) {
		labels := make([][]uint64, len(zs))
		for i, z := range zs {
			if nd.ID() < len(z) {
				labels[i] = z[nd.ID()]
			}
		}
		bits[nd.ID()] = alg(nd, g.Row(nd.ID()), labels)
	})
	if err != nil {
		return false, err
	}
	for _, b := range bits {
		if !b {
			return false, nil
		}
	}
	return true, nil
}
