// Package workload is the shared catalogue of parameterised node
// programs: named algorithms with deterministic instance generation in
// (n, seed). It is the one list both consumers of ad-hoc simulation
// draw from — the cliqued daemon's POST /v1/run endpoint and the
// cliquegrid experiment-grid runner — so a grid sweep and a served
// request with the same (algorithm, n, wpp, seed) provably run the
// same program on the same instance.
//
// The Figure 1 experiment draws its probe set from here too
// (exp.Fig1Workloads names catalogue entries and seeds them by n); the
// catalogue adds the substrates the paper's algorithms build on, with
// the seed exposed so clients can sweep instances.
package workload
