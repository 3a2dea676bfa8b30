package core

import (
	"fmt"

	"repro/internal/clique"
	"repro/internal/graph"
	"repro/internal/nondet"
)

// Problem is a decision problem: a (computable) family of graphs,
// represented by its centralized membership oracle. The paper does not
// require closure under isomorphism and neither do we.
type Problem struct {
	// Name identifies the problem in reports.
	Name string
	// Contains is the membership oracle (may be exponential time; the
	// model cares only about rounds).
	Contains func(g *graph.Graph) bool
}

// Solver is a deterministic distributed decision algorithm: every node
// returns its output bit, and the algorithm's answer is well-defined
// only if all nodes agree (the model's output convention).
type Solver func(nd clique.Endpoint, row graph.Bitset) bool

// RoundBound is a complexity function T(n), e.g. func(n) { return 1 }
// for CLIQUE(1).
type RoundBound func(n int) int

// Class describes a complexity class CLIQUE(T) or NCLIQUE(T).
type Class struct {
	Name  string
	Bound RoundBound
}

// CLIQUE returns the deterministic class descriptor for T.
func CLIQUE(name string, T RoundBound) Class {
	return Class{Name: "CLIQUE(" + name + ")", Bound: T}
}

// NCLIQUE returns the nondeterministic class descriptor for T.
func NCLIQUE(name string, T RoundBound) Class {
	return Class{Name: "NCLIQUE(" + name + ")", Bound: T}
}

// Conformance is the outcome of checking a solver against a problem on
// a set of instances.
type Conformance struct {
	Instances int
	MaxRounds int
	// Violations lists human-readable failures (wrong answers,
	// disagreeing nodes, round-bound breaches).
	Violations []string
}

// Ok reports whether the solver conformed on every instance.
func (c Conformance) Ok() bool { return len(c.Violations) == 0 }

// CheckSolves runs the solver on each instance and verifies (1) all
// nodes agree, (2) the answer matches the oracle, and (3) the round
// count respects the class bound (with a constant factor c, since class
// membership is up to O()).
func CheckSolves(cfg clique.Config, p Problem, s Solver, cls Class, cFactor int, instances []*graph.Graph) Conformance {
	out := Conformance{Instances: len(instances)}
	for idx, g := range instances {
		runCfg := cfg
		runCfg.N = g.N
		bits := make([]bool, g.N)
		res, err := clique.Run(runCfg, func(nd *clique.Node) {
			bits[nd.ID()] = s(nd, g.Row(nd.ID()))
		})
		if err != nil {
			out.Violations = append(out.Violations,
				fmt.Sprintf("instance %d: run failed: %v", idx, err))
			continue
		}
		for v := 1; v < g.N; v++ {
			if bits[v] != bits[0] {
				out.Violations = append(out.Violations,
					fmt.Sprintf("instance %d: nodes 0 and %d disagree", idx, v))
				break
			}
		}
		if want := p.Contains(g); bits[0] != want {
			out.Violations = append(out.Violations,
				fmt.Sprintf("instance %d: answered %v, oracle says %v", idx, bits[0], want))
		}
		if res.Stats.Rounds > out.MaxRounds {
			out.MaxRounds = res.Stats.Rounds
		}
		if limit := cFactor * cls.Bound(g.N); res.Stats.Rounds > limit {
			out.Violations = append(out.Violations,
				fmt.Sprintf("instance %d: %d rounds exceeds %d = %d * %s",
					idx, res.Stats.Rounds, limit, cFactor, cls.Name))
		}
	}
	return out
}

// CheckNondetSolves verifies the NCLIQUE semantics on instances: for
// yes-instances the prover's certificate must be accepted within the
// round bound, and for no-instances the caller-supplied certificate
// space must contain no accepted labelling (checked exhaustively, so
// spaces must be small).
func CheckNondetSolves(cfg clique.Config, p Problem, alg nondet.Algorithm,
	prover func(g *graph.Graph) nondet.Labelling, space nondet.LabelSpace,
	cls Class, cFactor int, instances []*graph.Graph) Conformance {

	out := Conformance{Instances: len(instances)}
	for idx, g := range instances {
		runCfg := cfg
		runCfg.N = g.N
		if p.Contains(g) {
			z := prover(g)
			if z == nil {
				out.Violations = append(out.Violations,
					fmt.Sprintf("instance %d: prover failed on yes-instance", idx))
				continue
			}
			verdict, err := nondet.RunVerifier(runCfg, g, alg, z)
			if err != nil {
				out.Violations = append(out.Violations,
					fmt.Sprintf("instance %d: %v", idx, err))
				continue
			}
			if !verdict.Accepted {
				out.Violations = append(out.Violations,
					fmt.Sprintf("instance %d: honest certificate rejected", idx))
			}
			if r := verdict.Result.Stats.Rounds; r > out.MaxRounds {
				out.MaxRounds = r
			}
			if limit := cFactor * cls.Bound(g.N); verdict.Result.Stats.Rounds > limit {
				out.Violations = append(out.Violations,
					fmt.Sprintf("instance %d: round bound exceeded", idx))
			}
		} else {
			found, _, err := nondet.ExhaustiveDecide(runCfg, g, alg, space)
			if err != nil {
				out.Violations = append(out.Violations,
					fmt.Sprintf("instance %d: %v", idx, err))
				continue
			}
			if found {
				out.Violations = append(out.Violations,
					fmt.Sprintf("instance %d: certificate accepted on no-instance", idx))
			}
		}
	}
	return out
}
