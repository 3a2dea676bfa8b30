// Package serve is the long-running simulation service behind the
// cliqued daemon: an HTTP/JSON layer over the internal/exp experiment
// registry and the internal/clique simulator.
//
// The service exposes:
//
//   - GET  /v1/experiments            — the registry (id, artefact, title)
//   - GET  /v1/experiments/{id}       — one registry entry
//   - POST /v1/experiments/{id}:run   — run a registered experiment
//   - GET  /v1/algorithms             — the ad-hoc algorithm catalogue
//   - POST /v1/run                    — ad-hoc run (algorithm, n, backend, seed)
//   - GET  /v1/ledger/stats           — durable tier integrity view (404 without -ledger)
//   - GET  /healthz                   — liveness
//   - GET  /metrics                   — expvar counters (jobs, cache, rounds/sec)
//
// Both run endpoints answer with the same cliquebench/v1 JSON envelope
// that `cliquebench -format=json` prints, byte for byte, so clients and
// stored reports never see two shapes for one result.
//
// Execution is organised as a bounded job queue drained by a fixed
// worker pool. Every request is first canonicalised and hashed
// (exp.Request.Hash); the hash keys a deduplicating result cache, so
// concurrent identical requests coalesce onto one running job and
// repeated requests are served from memory without simulating anything.
// Workers run experiments on the lockstep engine whose mailbox arenas
// are pooled across runs (internal/engine), so a hot serving loop stops
// allocating its largest buffers; /metrics breaks the pools' hit rates
// down per mailbox shape and per scratch size class. With
// Config.BatchWidth > 1 a worker additionally coalesces queued
// same-shape untraced ad-hoc jobs into one batched engine execution
// whose per-job envelopes stay byte-identical to serial runs. Either
// way an ad-hoc job runs through workload.RunBatch, a batch of one on
// the serial path, and its simulated wall is its share of the batch's
// wall clock, instance generation included. Clients that ask for
// `Accept: text/event-stream` (or `?stream=sse`) get queued/progress
// events while the job runs and the envelope as the final event.
// Shutdown is graceful: the queue stops accepting, running jobs drain
// (or are cancelled at the drain deadline), pending ledger appends are
// fsync'd, and waiters are notified.
//
// # Failure semantics
//
// Failures map to a typed taxonomy so retry policy never parses error
// text: a full queue sheds with 503 plus a Retry-After estimate from
// the recent-jobs wall-time window (jobs_shed); a job exceeding its
// wall budget — Config.JobTimeout, optionally shrunk per-request via
// timeout_ms — answers 504 (errJobTimeout); a coalesced job keeps its
// own budget, checked at the batch's shared run boundary exactly as a
// serial job's is at its run's; a contained worker panic
// or any other run failure answers 500; shutdown answers 503. With
// Config.Ledger set, computed untraced envelopes are appended to the
// crash-safe store (internal/ledger) before the response is released
// — a 200 implies durable — and memory-cache misses consult the
// ledger before simulating, so results survive restarts byte for
// byte. Ledger failures degrade durability (ledger_errors), never
// availability. internal/fault's injection sites (job.run, ledger.*)
// let the chaos suite drive all of this deterministically.
package serve
