package serve

import (
	"context"
	"expvar"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/clique"
	"repro/internal/ledger"
)

// Config sizes the service. The zero value is usable: every field has a
// production-reasonable default applied by New.
type Config struct {
	// Workers is the number of job-executing goroutines. Default:
	// GOMAXPROCS. Note each worker runs a whole simulation (which may
	// itself use every core via the lockstep engine's shard pool), so
	// worker count trades per-job latency against throughput under
	// concurrent load.
	Workers int
	// QueueDepth bounds the number of jobs waiting to run; a full
	// queue rejects new work with 503 rather than queueing unboundedly.
	// Default: 64.
	QueueDepth int
	// CacheEntries bounds the completed-result cache (FIFO eviction).
	// Default: 256.
	CacheEntries int
	// DefaultBackend is the engine used when a request does not name
	// one. Default: clique.DefaultBackend.
	DefaultBackend string
	// BatchWidth caps how many batchable ad-hoc jobs a worker coalesces
	// from the queue into one batched engine execution (untraced ad-hoc
	// requests sharing algorithm/n/wpp/backend/quick — seed sweeps).
	// Each coalesced job still produces the envelope a serial execution
	// would, byte for byte. Default: 1, i.e. batching off.
	BatchWidth int
	// JobTimeout caps every job's wall-clock execution budget; a job
	// that exceeds it fails with the typed deadline error (HTTP 504 —
	// distinct from 503 shed and 500 panic). Requests may ask for a
	// shorter budget via timeout_ms but can never exceed this cap.
	// 0 (the default) means no server-side cap: only per-request
	// budgets apply. Cancellation takes effect at the next
	// simulated-run boundary, the same grain as Shutdown's abort.
	JobTimeout time.Duration
	// Ledger, when non-nil, is the durable second cache tier: every
	// successfully computed untraced envelope is appended (write-
	// through, fsync'd before the response is released) and memory-
	// cache misses consult it before simulating, so computed results
	// survive daemon restarts. The server does not close it; the
	// owner does, after Shutdown returns.
	Ledger *ledger.Ledger
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 64
	}
	if c.CacheEntries < 1 {
		c.CacheEntries = 256
	}
	if c.DefaultBackend == "" {
		c.DefaultBackend = clique.DefaultBackend
	}
	if c.BatchWidth < 1 {
		c.BatchWidth = 1
	}
	return c
}

// Server is the simulation service. Create with New, mount Handler on
// an http.Server, and call Shutdown to drain.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	metrics *metrics
	cache   *resultCache
	queue   chan *entry

	baseCtx context.Context // cancelled to abort running jobs
	abort   context.CancelFunc

	mu      sync.Mutex // guards closed / queue close
	closed  bool
	workers sync.WaitGroup
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		metrics: newMetrics(),
		cache:   newResultCache(cfg.CacheEntries),
		queue:   make(chan *entry, cfg.QueueDepth),
		baseCtx: ctx,
		abort:   cancel,
	}
	if cfg.Ledger != nil {
		s.metrics.vars.Set("ledger", expvar.Func(func() any { return cfg.Ledger.Stats() }))
	}
	s.routes()
	s.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/ledger/stats", s.handleLedgerStats)
	s.mux.HandleFunc("GET /v1/experiments", s.handleListExperiments)
	s.mux.HandleFunc("GET /v1/experiments/{id}", s.handleGetExperiment)
	s.mux.HandleFunc("POST /v1/experiments/{idop}", s.handleRunExperiment)
	s.mux.HandleFunc("GET /v1/algorithms", s.handleListAlgorithms)
	s.mux.HandleFunc("POST /v1/run", s.handleAdhocRun)
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Backends reports the engine names the service accepts, for handlers
// and for cmd/cliqued's flag help.
func Backends() []string { return clique.Backends() }

// Shutdown drains the service: no new jobs are accepted (handlers
// answer 503), queued and running jobs finish, then workers exit. If
// ctx expires first, running jobs are cancelled at their next
// simulated-run boundary and Shutdown waits for the workers to unwind
// before returning ctx's error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.flushLedger()
		return nil
	case <-ctx.Done():
		s.abort() // cancel running jobs, then wait for the unwind
		<-done
		s.flushLedger()
		return ctx.Err()
	}
}

// flushLedger makes the drain's durability promise explicit: every
// append the workers performed is fsync'd before Shutdown returns, so
// a clean SIGTERM exit never leaves a torn tail (appends sync
// individually; this is the belt-and-braces flush for the exit path).
func (s *Server) flushLedger() {
	if s.cfg.Ledger != nil {
		_ = s.cfg.Ledger.Sync()
	}
}
