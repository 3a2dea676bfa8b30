// Package trace is the simulator's round-level observability plane: a
// zero-cost-when-off tracing subsystem that turns a simulated run into
// an inspectable timeline instead of a single Stats total.
//
// Three layers feed one Collector:
//
//   - The engine backends report every exchanged round through the
//     Tracer interface (EndRound): wall time, barrier-wait time, and
//     the per-ordered-pair word counts of the round — the congestion
//     heatmap the paper's accounting is about.
//   - The collective layer (internal/comm) opens an op span around
//     every collective via Op: operation name, payload words, and the
//     rounds the collective consumed.
//   - Algorithm packages mark multi-phase structure via Phase, so
//     Mul3DBits' three exchanges or Borůvka's iterations appear as
//     named regions.
//
// Spans are recorded from node 0's perspective: the model is uniform
// (every node runs the same program), so node 0's phase structure is
// the run's phase structure, and the trace stays O(spans) rather than
// O(n * spans). Round data comes from the engine and is global.
//
// When no Tracer is configured the whole plane folds to nil checks and
// a shared no-op closure; the steady-state bench gate (the trace-off
// row of exp.Probes, compared in CI against BENCH_baseline.json) holds
// the trace-off overhead under 1%.
//
// A finished Collector yields a RunTrace, which serialises two ways:
// Summary produces the deterministic-shape cliquetrace/v1 envelope
// block (per-phase and per-op tables whose round counts sum exactly to
// Stats.Rounds), and WriteChrome emits Chrome trace-event JSON loadable
// in Perfetto or chrome://tracing (round, phase and op tracks plus
// words-per-round counter tracks).
package trace
