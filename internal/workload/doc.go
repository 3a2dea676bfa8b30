// Package workload is the one catalogue of parameterised node programs:
// named algorithms with deterministic instance generation in (n, seed).
// It is the only algorithm list in the repository. The cliqued
// daemon's POST /v1/run, the cliquegrid runner, the cliquerun command
// and the root BenchmarkWorkloads family all draw from it, so a grid
// sweep, a served request and a command-line run with the same
// (algorithm, n, wpp, seed) run the same program on the same instance.
//
// Each entry builds an Instance: the node program, node 0's answer and,
// where one exists, a centralized oracle, a Check that needs no oracle
// (every node agreed, a witness is a solution) and a telemetry value
// such as node 0's algorithm statistics, all read lazily after the run.
// RunBatch is the one place an entry runs: it builds a batch of
// (entry, seed) instances, runs them through one clique.RunBatch, and
// splits the batch's wall clock across the runs by rounds.
//
// The paper tables draw from here too: Figure 1's probe set, E10–E13
// and the MST tables. Where a table varies what an entry fixes, a
// constructor (KDS(k), KVC(k), MSTSparse(density)) builds the entry at
// the table's value; the catalogue registers it at its default.
package workload
