package clique

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/trace"
)

// RunBatch executes len(programs) independent runs of the same network
// shape — one NodeFunc per run, typically the same algorithm over a
// seed sweep — through one batched engine execution. Results and errors
// are indexed by run, and each entry is bit-identical to what
// Run(cfg, programs[r]) would return: same Stats, same Transcripts,
// same canonical violation error. Runs are independent; one run's
// failure does not disturb the others. Run itself is a batch of one.
//
// On the lockstep backend the batch shares round scheduling, barrier
// bookkeeping, and run-major mailbox storage, so per-round fixed costs
// amortise across the batch; other backends execute the runs one after
// another with the same per-run results. Tracing is per-run by nature:
// a traced batch of several runs executes as batches of one, and
// phase/op span recording (a node-0 sampling concern, not a model
// output) is wired only when the batch is a single run.
func RunBatch(cfg Config, programs []NodeFunc) ([]*Result, []error) {
	batch := len(programs)
	if batch == 0 {
		return nil, nil
	}
	fail := func(err error) ([]*Result, []error) {
		errs := make([]error, batch)
		for i := range errs {
			errs[i] = err
		}
		return make([]*Result, batch), errs
	}
	if err := cfg.Validate(); err != nil {
		return fail(err)
	}
	cfg = cfg.withDefaults()
	be, err := engine.New(cfg.Backend)
	if err != nil {
		return fail(fmt.Errorf("clique: %w", err))
	}
	var rec trace.SpanRecorder
	if batch == 1 {
		rec, _ = cfg.Tracer.(trace.SpanRecorder)
		if rec == nil && engine.TraceForced() {
			// CLIQUE_FORCE_TRACE: drive the span-recording paths with a
			// throwaway collector (CI runs tests this way under -race).
			rec = trace.NewCollector("forced", cfg.N, cfg.WordsPerPair)
		}
	}
	// Replicated results are shared within a run on lockstep only; the
	// goroutine reference backend computes them at every node.
	var reps []replicas
	if be.Name() == "lockstep" {
		reps = make([]replicas, batch)
	}
	return engine.RunBatch(be, cfg.engineConfig(), batch, func(run, id int, rt engine.NodeRuntime) {
		nd := &Node{id: id, n: cfg.N, wpp: cfg.WordsPerPair, rt: rt}
		if reps != nil {
			nd.rep = &reps[run]
		}
		if id == 0 {
			// Spans are recorded from node 0 only: the model is uniform,
			// so node 0's phase structure is the run's phase structure.
			nd.tr = rec
		}
		programs[run](nd)
		// A staged broadcast of a returning program belongs to the round
		// its peers are completing; a violation it raises panics inside
		// the body, where the engine recovers it like any other.
		nd.flush()
	})
}
