// Package workload is the one catalogue of parameterised node programs:
// named algorithms with deterministic instance generation in (n, seed).
// It is the only algorithm list in the repository. The cliqued
// daemon's POST /v1/run, the cliquegrid runner, the cliquerun command
// and the root BenchmarkWorkloads family all draw from it, so a grid
// sweep, a served request and a command-line run with the same
// (algorithm, n, wpp, seed) run the same program on the same instance.
//
// Each entry builds an Instance: the node program, node 0's answer and,
// where one exists, a centralized oracle, both read lazily after the
// run. RunBatch is the one place an entry runs: it builds a batch of
// (entry, seed) instances, runs them through one clique.RunBatch, and
// splits the batch's wall clock across the runs by rounds. The
// Figure 1 experiment draws its probe set from here too.
package workload
