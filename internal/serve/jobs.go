package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/clique"
	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/ledger"
	"repro/internal/workload"
)

// The serving error taxonomy. Each sentinel maps to one HTTP status so
// clients can tell load shedding (retry with backoff), a deadline
// (retry with a bigger budget or not at all) and a genuine run failure
// apart without parsing text: errQueueFull and errShuttingDown are
// 503, errJobTimeout is 504, anything else is 500.
var (
	errQueueFull    = errors.New("job queue full")
	errShuttingDown = errors.New("server shutting down")
	errJobTimeout   = errors.New("job deadline exceeded")
)

// schedule resolves a request against the two cache tiers: it either
// coalesces onto an existing in-memory entry (in-flight or completed —
// both count as cache hits: nothing new is simulated), serves the
// durable ledger's committed envelope from a previous process life, or
// creates the entry and enqueues its job. The caller then waits on the
// returned entry. timeout is the job's wall-clock budget (0 = none),
// fixed by whichever request created the entry.
func (s *Server) schedule(req exp.Request, timeout time.Duration) (*entry, error) {
	hash := req.Hash()
	e, created := s.cache.lookupOrCreate(hash, req)
	if !created {
		s.metrics.cacheHits.Add(1)
		return e, nil
	}
	e.timeout = timeout
	s.metrics.cacheMisses.Add(1)
	// Traced envelopes carry wall-clock span data, so only untraced
	// requests — the reproducible artefacts — are ledger-addressable.
	if s.cfg.Ledger != nil && !req.Trace {
		data, err := s.cfg.Ledger.Get(hash)
		switch {
		case err == nil:
			s.metrics.ledgerHits.Add(1)
			s.cache.markCompleted(e, false)
			e.complete(data, nil)
			return e, nil
		case !errors.Is(err, ledger.ErrNotFound):
			// A read failure degrades to recomputation, never to serving
			// unverified bytes.
			s.metrics.ledgerErrors.Add(1)
		}
	}
	if err := s.enqueue(e); err != nil {
		// The entry never ran; remove it so a retry can schedule anew,
		// and fail any concurrent waiters that already coalesced on it.
		s.cache.markCompleted(e, true)
		e.complete(nil, err)
		s.metrics.jobsRejected.Add(1)
		return nil, err
	}
	return e, nil
}

// enqueue adds a job to the bounded queue without ever blocking: a full
// queue is load shedding, not backpressure-by-hanging.
func (s *Server) enqueue(e *entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errShuttingDown
	}
	e.enqueuedAt = time.Now()
	select {
	case s.queue <- e:
		s.metrics.jobsQueued.Add(1)
		return nil
	default:
		s.metrics.jobsShed.Add(1)
		return errQueueFull
	}
}

// worker drains the queue until Shutdown closes it. With BatchWidth
// > 1 it opportunistically coalesces batchable jobs already waiting in
// the queue into one batched engine execution. Jobs drained while
// probing that do not match the leader's shape carry over as pending
// work and run next, so nothing is dropped or starved; coalescing never
// waits for work that is not already queued.
func (s *Server) worker() {
	defer s.workers.Done()
	var pending []*entry
	for {
		var e *entry
		if len(pending) > 0 {
			e, pending = pending[0], pending[1:]
		} else {
			var ok bool
			if e, ok = <-s.queue; !ok {
				return
			}
			s.metrics.jobsQueued.Add(-1)
		}
		group := []*entry{e}
		if s.cfg.BatchWidth > 1 && batchable(e.req) {
			group, pending = s.coalesce(e, pending)
		}
		for _, g := range group {
			s.metrics.queueWait.observe(jobLabel(g.req), time.Since(g.enqueuedAt).Nanoseconds())
		}
		if len(group) == 1 {
			s.runJob(e)
		} else {
			s.runJobBatch(group)
		}
	}
}

// batchable reports whether a request may join a batched execution at
// all: ad-hoc simulations, untraced (a trace collector is per-run state
// the batched engine path does not thread).
func batchable(req exp.Request) bool {
	return req.Kind == exp.KindAdhoc && !req.Trace
}

// sameBatchShape reports whether b can share a batched engine
// execution with leader a: both batchable and differing only by seed.
// The handler resolves the words-per-pair default before hashing, so
// equal budgets compare equal here.
func sameBatchShape(a, b exp.Request) bool {
	return batchable(b) &&
		a.Algorithm == b.Algorithm && a.N == b.N &&
		a.WordsPerPair == b.WordsPerPair &&
		a.Backend == b.Backend && a.Quick == b.Quick
}

// coalesce grows e's batch group up to BatchWidth, first from pending
// jobs a previous probe drained, then from whatever is sitting in the
// queue right now. Non-matching drained jobs are returned as the new
// pending list in arrival order.
func (s *Server) coalesce(e *entry, pending []*entry) (group, rest []*entry) {
	group = []*entry{e}
	rest = pending[:0]
	for _, p := range pending {
		if len(group) < s.cfg.BatchWidth && sameBatchShape(e.req, p.req) {
			group = append(group, p)
		} else {
			rest = append(rest, p)
		}
	}
	for len(group) < s.cfg.BatchWidth {
		select {
		case p, ok := <-s.queue:
			if !ok {
				return group, rest
			}
			s.metrics.jobsQueued.Add(-1)
			if sameBatchShape(e.req, p.req) {
				group = append(group, p)
			} else {
				rest = append(rest, p)
			}
		default:
			return group, rest
		}
	}
	return group, rest
}

// jobLabel is the histogram label of a request: the experiment id, or
// the ad-hoc result id ("adhoc:<algorithm>") — the same names the
// envelope carries, so dashboards join on one vocabulary.
func jobLabel(req exp.Request) string {
	if req.Kind == exp.KindAdhoc {
		return "adhoc:" + req.Algorithm
	}
	return req.Experiment
}

// runJob executes one entry's request and completes the entry exactly
// once, whatever happens inside — including a panic escaping the
// experiment body: a serving daemon turns that into a failed job, never
// a dead process. The result bytes are the cliquebench/v1 envelope
// exactly as cliquebench -format=json would print it for the same
// experiment, backend and quick setting — one result shape across the
// whole system.
func (s *Server) runJob(e *entry) {
	s.metrics.jobsRunning.Add(1)
	start := time.Now()
	data, err := s.executeJob(e)
	s.metrics.runWall.observe(jobLabel(e.req), time.Since(start).Nanoseconds())
	if err != nil {
		s.metrics.jobsFailed.Add(1)
	} else {
		s.persist(e.req, e.hash, data)
	}
	// Count the job done before its waiters wake, so a client holding
	// the answer never reads it as still running in /metrics.
	s.metrics.jobsRunning.Add(-1)
	s.metrics.jobsDone.Add(1)
	s.cache.markCompleted(e, err != nil)
	e.complete(data, err)
}

// executeJob is runJob's fallible body, with panics converted to
// errors so completion bookkeeping always runs exactly once, and the
// job's wall-clock budget (entry.timeout) enforced: a budget overrun
// surfaces as the typed errJobTimeout — provided the server itself is
// not shutting down, which keeps its own 503 classification.
func (s *Server) executeJob(e *entry) (data []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			data, err = nil, fmt.Errorf("job %s panicked: %v", e.req.Kind, r)
		}
	}()
	// Chaos-suite injection point: worker stalls and synthetic worker
	// panics land here, inside the panic containment and the deadline.
	ctx := s.baseCtx
	if e.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(s.baseCtx, e.timeout)
		defer cancel()
	}
	if ferr := fault.Hit("job.run"); ferr != nil {
		return nil, ferr
	}
	experiment, err := s.experimentFor(e.req)
	if err != nil {
		return nil, err
	}
	opts := exp.Options{Backend: e.req.Backend, Quick: e.req.Quick,
		Trace: e.req.Trace, Progress: e.publishProgress}
	res, tim, err := exp.RunExperiment(ctx, experiment, opts)
	if err != nil {
		return nil, s.classifyDeadline(ctx, e.timeout, err)
	}
	return s.finish(e.req, opts, res, tim)
}

// finish is the post-run tail the serial and batched paths share: it
// folds the run's simulated rounds and throughput into the metrics and
// marshals the job's envelope.
func (s *Server) finish(req exp.Request, opts exp.Options, res *exp.Result, tim exp.Timing) ([]byte, error) {
	s.metrics.simRounds.Add(tim.Rounds)
	if tim.SimWall > 0 {
		s.metrics.rpsHist.observe(jobLabel(req),
			int64(float64(tim.Rounds)/tim.SimWall.Seconds()))
	}
	s.metrics.window.record(tim.Rounds, tim.SimWall.Nanoseconds())
	return marshalEnvelope(req.Backend, opts, res)
}

// classifyDeadline rewrites a run failure caused by the job's own
// deadline into the typed errJobTimeout. A cancellation caused by
// server shutdown (baseCtx) is left alone: that is unavailability, not
// a deadline.
func (s *Server) classifyDeadline(ctx context.Context, budget time.Duration, err error) error {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) && s.baseCtx.Err() == nil {
		return fmt.Errorf("%w (budget %v): %v", errJobTimeout, budget, err)
	}
	return err
}

// persist write-throughs a freshly computed envelope to the durable
// ledger tier before the entry completes, so a 200 response implies
// the result survives a crash. Traced envelopes are skipped (they
// embed wall-clock data and are not reproducible artefacts); an
// append failure degrades durability, never availability — the
// response is still served, and the failure is counted.
func (s *Server) persist(req exp.Request, hash string, data []byte) {
	if s.cfg.Ledger == nil || req.Trace || data == nil {
		return
	}
	if err := s.cfg.Ledger.Append(hash, data); err != nil {
		s.metrics.ledgerErrors.Add(1)
	}
}

// runJobBatch executes a coalesced group of same-shape ad-hoc jobs as
// one batched engine execution and completes every entry exactly once,
// with the same panic containment as runJob. Each job's envelope is
// byte-identical to what a serial runJob would have produced for it:
// batched per-run results are bit-identical to serial runs, and the
// envelope is built by the same exp/marshal path (pinned by tests).
func (s *Server) runJobBatch(group []*entry) {
	s.metrics.jobsRunning.Add(int64(len(group)))
	start := time.Now()
	data, errs := s.executeBatch(group)
	// The group shares one shape, so jobs are comparable in cost: split
	// the batch's wall evenly across them for the per-job histogram.
	wall := time.Since(start).Nanoseconds() / int64(len(group))
	s.metrics.batches.Add(1)
	s.metrics.jobsBatched.Add(int64(len(group)))
	for i, e := range group {
		s.metrics.runWall.observe(jobLabel(e.req), wall)
		if errs[i] != nil {
			s.metrics.jobsFailed.Add(1)
		} else {
			s.persist(e.req, e.hash, data[i])
		}
	}
	// As in runJob: counted done before any waiter wakes.
	s.metrics.jobsRunning.Add(int64(-len(group)))
	s.metrics.jobsDone.Add(int64(len(group)))
	for i, e := range group {
		s.cache.markCompleted(e, errs[i] != nil)
		e.complete(data[i], errs[i])
	}
}

// executeBatch is runJobBatch's fallible body: one workload.RunBatch
// over the group's specs, then one envelope per job. A panic fails every
// job that has not already been decided. Each job keeps its own
// wall-clock budget, measured from the start of the batch and checked,
// as on the serial path, once at the run boundary the batch's runs
// share: a job already past its deadline there answers errJobTimeout
// and is left out of the batch, and a run that starts in time is
// allowed to finish.
func (s *Server) executeBatch(group []*entry) (data [][]byte, errs []error) {
	data = make([][]byte, len(group))
	errs = make([]error, len(group))
	ctxs := make([]context.Context, len(group))
	for i, e := range group {
		ctxs[i] = s.baseCtx
		if e.timeout > 0 {
			var cancel context.CancelFunc
			ctxs[i], cancel = context.WithTimeout(s.baseCtx, e.timeout)
			defer cancel()
		}
	}
	defer func() {
		if r := recover(); r != nil {
			err := fmt.Errorf("job %s panicked: %v", group[0].req.Kind, r)
			for i := range group {
				if data[i] == nil && errs[i] == nil {
					errs[i] = err
				}
			}
		}
	}()
	// The batch path shares the serial path's chaos injection point, so
	// the fault suite exercises batched workers too.
	if ferr := fault.Hit("job.run"); ferr != nil {
		for i := range errs {
			errs[i] = ferr
		}
		return data, errs
	}
	// The group shares one shape, so validation is decided once for all.
	alg, wpp, err := adhocParams(group[0].req)
	if err != nil {
		for i := range errs {
			errs[i] = err
		}
		return data, errs
	}
	backend := group[0].req.Backend
	if backend == "" {
		backend = clique.DefaultBackend
	}
	// The run boundary: a job already past its deadline fails here, as
	// a serial job does before its run, and the rest run as one batch.
	var live []int
	var specs []workload.Spec
	for i, e := range group {
		if err := ctxs[i].Err(); err != nil {
			errs[i] = s.classifyDeadline(ctxs[i], e.timeout, fmt.Errorf("exp adhoc:%s: %w", alg.Name, err))
			continue
		}
		live = append(live, i)
		specs = append(specs, workload.Spec{Alg: alg, Seed: e.req.Seed})
	}
	cfg := clique.Config{N: group[0].req.N, WordsPerPair: wpp, Backend: backend}
	for k, run := range workload.RunBatch(cfg, specs) {
		i := live[k]
		e := group[i]
		experiment, err := adhocExperiment(e.req, &run)
		if err != nil {
			errs[i] = err
			continue
		}
		opts := exp.Options{Backend: e.req.Backend, Quick: e.req.Quick, Progress: e.publishProgress}
		res, tim, err := exp.RunExperiment(s.baseCtx, experiment, opts)
		if err != nil {
			errs[i] = err
			continue
		}
		data[i], errs[i] = s.finish(e.req, opts, res, tim)
	}
	return data, errs
}

// experimentFor resolves a canonical request to a runnable Experiment.
func (s *Server) experimentFor(req exp.Request) (exp.Experiment, error) {
	switch req.Kind {
	case exp.KindExperiment:
		e, ok := exp.Get(req.Experiment)
		if !ok {
			return exp.Experiment{}, fmt.Errorf("unknown experiment %q", req.Experiment)
		}
		return e, nil
	case exp.KindAdhoc:
		return adhocExperiment(req, nil)
	}
	return exp.Experiment{}, fmt.Errorf("unknown request kind %q", req.Kind)
}

// marshalEnvelope serialises one Result as a timing-free Report via
// Report.WriteJSON — the same code path cmd/cliquebench's JSON output
// uses, so byte equality with the CLI (a tested invariant) holds by
// construction.
func marshalEnvelope(backend string, opts exp.Options, res *exp.Result) ([]byte, error) {
	report := exp.NewReport(backend, opts, []*exp.Result{res}, exp.Timing{}, false)
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
