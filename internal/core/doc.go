// Package core ties the repository together as the paper's complexity
// theory: decision problems, the deterministic and nondeterministic
// complexity classes CLIQUE(T) and NCLIQUE(T), conformance checking of
// distributed solvers against centralized oracles, and the canonical
// edge labelling problems of Theorem 6 that capture all of NCLIQUE(1).
//
// CompiledProblem is the repository's one labelling-problem type, and
// CompileNCLIQUE1 its one Theorem 6 implementation: it turns a
// constant-round verifier into an edge labelling problem whose labels
// pack an accepting run's messages, LabelsFromTranscripts builds those
// labels from a recorded run, and VerifyCompiled checks them in one
// round (label consistency, then each node's local realisability check,
// CompiledProblem.CheckRow). Experiment E7 (thm6) and
// BenchmarkThm6_EdgeLabelling run it on 3-colouring.
package core
