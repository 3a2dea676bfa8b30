package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/workload"
)

// writeJSON writes v as a JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError writes the service's error shape.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleHealthz answers liveness probes. Beyond "am I up", the payload
// carries the binary's build block — the same attribution every result
// envelope embeds — so an operator can tell which build is serving
// without fishing a result out of the cache.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "build": exp.Build()})
}

func (s *Server) handleListExperiments(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"experiments": exp.Infos()})
}

func (s *Server) handleGetExperiment(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e, ok := exp.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown experiment %q", id)
		return
	}
	writeJSON(w, http.StatusOK, exp.Info{ID: e.ID, Artefact: e.Artefact, Title: e.Title})
}

func (s *Server) handleListAlgorithms(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"algorithms": workload.All(), "max_n": maxAdhocN})
}

// runExperimentBody is the optional POST body of {id}:run. TimeoutMS
// asks for a wall-clock budget; the server caps it at its own
// JobTimeout, and a job exceeding the effective budget answers 504.
// The budget is execution policy, not work identity, so it is not part
// of the cache key: coalesced requests share the creating request's
// budget.
type runExperimentBody struct {
	Backend   string `json:"backend,omitempty"`
	Quick     bool   `json:"quick,omitempty"`
	Trace     bool   `json:"trace,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// handleRunExperiment serves POST /v1/experiments/{id}:run. The mux
// captures "fig1:run" as one path segment; the :run suffix is the only
// recognised operation.
func (s *Server) handleRunExperiment(w http.ResponseWriter, r *http.Request) {
	idop := r.PathValue("idop")
	id, op, ok := strings.Cut(idop, ":")
	if !ok || op != "run" {
		writeError(w, http.StatusNotFound, "unknown operation %q (try POST /v1/experiments/{id}:run)", idop)
		return
	}
	var body runExperimentBody
	if !decodeBody(w, r, &body) {
		return
	}
	req := exp.Request{Kind: exp.KindExperiment, Experiment: id,
		Backend: body.Backend, Quick: body.Quick, Trace: body.Trace}
	s.scheduleAndRespond(w, r, req, body.TimeoutMS)
}

// adhocRunBody is the POST /v1/run body. TimeoutMS follows the same
// budget rules as runExperimentBody's.
type adhocRunBody struct {
	Algorithm    string `json:"algorithm"`
	N            int    `json:"n"`
	WordsPerPair int    `json:"words_per_pair,omitempty"`
	Seed         uint64 `json:"seed,omitempty"`
	Backend      string `json:"backend,omitempty"`
	Quick        bool   `json:"quick,omitempty"`
	Trace        bool   `json:"trace,omitempty"`
	TimeoutMS    int64  `json:"timeout_ms,omitempty"`
}

func (s *Server) handleAdhocRun(w http.ResponseWriter, r *http.Request) {
	var body adhocRunBody
	if !decodeBody(w, r, &body) {
		return
	}
	req := exp.Request{Kind: exp.KindAdhoc, Algorithm: body.Algorithm,
		N: body.N, WordsPerPair: body.WordsPerPair, Seed: body.Seed,
		Backend: body.Backend, Quick: body.Quick, Trace: body.Trace}
	// Resolve the catalogue's per-algorithm word budget before hashing,
	// so the omitted and explicit-default spellings share a cache slot.
	_, wpp, err := adhocParams(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	req.WordsPerPair = wpp
	s.scheduleAndRespond(w, r, req, body.TimeoutMS)
}

// decodeBody parses an optional JSON request body strictly. An empty
// body leaves v at its zero value. Returns false after answering 400.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return false
	}
	return true
}

// scheduleAndRespond canonicalises, schedules (dedup + queue) and then
// answers either as one JSON envelope or as an SSE stream. `?trace=1`
// is the query-string spelling of the body's trace field; traced
// requests hash to their own cache slot, since a traced envelope is a
// different (wall-clock-carrying) artefact.
func (s *Server) scheduleAndRespond(w http.ResponseWriter, r *http.Request, req exp.Request, timeoutMS int64) {
	if r.URL.Query().Get("trace") == "1" {
		req.Trace = true
	}
	if req.Backend == "" {
		req.Backend = s.cfg.DefaultBackend
	}
	req, err := req.Canonical()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if timeoutMS < 0 {
		writeError(w, http.StatusBadRequest, "timeout_ms = %d, need >= 0", timeoutMS)
		return
	}
	e, err := s.schedule(req, s.effectiveTimeout(timeoutMS))
	if err != nil {
		if errors.Is(err, errQueueFull) {
			// Shed responses tell the client when capacity should be
			// back, so retries pace themselves instead of hammering.
			w.Header().Set("Retry-After", fmt.Sprint(s.retryAfterSeconds()))
		}
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	if wantsSSE(r) {
		s.respondSSE(w, r, e)
		return
	}
	select {
	case <-e.done:
		if e.err != nil {
			writeError(w, runErrorStatus(e.err), "%v", e.err)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.Header().Set("X-Request-Hash", e.hash)
		_, _ = w.Write(e.data)
	case <-r.Context().Done():
		// Client went away. The job keeps running: its result is cached
		// for the retry, and other waiters may be coalesced on it.
	}
}

// runErrorStatus maps a job error to an HTTP status — the error
// taxonomy's wire form. Shed and shutdown are 503 (retry elsewhere or
// later), a blown job deadline is 504 (retry with a bigger budget, or
// don't), and everything else — including a contained worker panic —
// is a 500 run failure.
func runErrorStatus(err error) int {
	switch {
	case errors.Is(err, errJobTimeout) || errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, errShuttingDown) || errors.Is(err, errQueueFull) ||
		errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// effectiveTimeout resolves a request's timeout_ms against the
// server's JobTimeout cap: the request may shrink its budget, never
// grow past the cap; 0 asks for the server default.
func (s *Server) effectiveTimeout(timeoutMS int64) time.Duration {
	t := time.Duration(timeoutMS) * time.Millisecond
	if t <= 0 {
		return s.cfg.JobTimeout
	}
	if s.cfg.JobTimeout > 0 && t > s.cfg.JobTimeout {
		return s.cfg.JobTimeout
	}
	return t
}

// retryAfterSeconds estimates when shed load should retry: the queue
// is full, so the backlog is QueueDepth jobs spread over Workers
// workers, each taking about the windowed average job wall time. No
// history yet (a cold daemon being stampeded) falls back to 1s.
func (s *Server) retryAfterSeconds() int64 {
	avg := s.metrics.window.avgJobWallNS()
	if avg <= 0 {
		return 1
	}
	backlogNS := avg * int64(s.cfg.QueueDepth) / int64(s.cfg.Workers)
	secs := (backlogNS + int64(time.Second) - 1) / int64(time.Second)
	if secs < 1 {
		return 1
	}
	if secs > 60 {
		return 60
	}
	return secs
}

// handleLedgerStats serves the durable tier's integrity view: record
// and byte counts plus the chain head an auditor can compare across
// replicas or against an offline `cliqued -verify-ledger` scan.
func (s *Server) handleLedgerStats(w http.ResponseWriter, _ *http.Request) {
	if s.cfg.Ledger == nil {
		writeError(w, http.StatusNotFound, "no ledger configured (start cliqued with -ledger)")
		return
	}
	writeJSON(w, http.StatusOK, s.cfg.Ledger.Stats())
}
