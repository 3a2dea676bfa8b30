package serve

import (
	"expvar"
	"fmt"
	"net/http"

	"repro/internal/engine"
)

// metrics are the service counters served at /metrics. They use expvar
// types but live in an unregistered expvar.Map owned by the Server, so
// tests can build many Servers in one process without tripping expvar's
// global duplicate-name panic. cmd/cliqued additionally publishes the
// map into the process-global expvar namespace.
type metrics struct {
	jobsQueued   expvar.Int // currently waiting in the queue
	jobsRunning  expvar.Int // currently executing on a worker
	jobsDone     expvar.Int // completed, success or failure
	jobsFailed   expvar.Int // completed with an error
	jobsRejected expvar.Int // refused: queue full or shutting down
	jobsShed     expvar.Int // refused by load shedding alone (queue full)
	cacheHits    expvar.Int // answered from cache or coalesced
	cacheMisses  expvar.Int // scheduled a fresh run
	ledgerHits   expvar.Int // answered from the durable ledger tier
	ledgerErrors expvar.Int // ledger reads/appends that failed (degraded durability)
	simRounds    expvar.Int // total simulated rounds served
	batches      expvar.Int // batched engine executions (BatchWidth > 1)
	jobsBatched  expvar.Int // jobs that ran inside a batched execution

	// The latency plane: log₂-bucketed distributions labelled by
	// experiment id (or "adhoc:<algorithm>"). queueWait is time spent in
	// the job queue before a worker picked the job up; runWall is the
	// job's whole execution wall time; rpsHist is the distribution of
	// per-job simulated throughput. window backs the rounds_per_sec
	// gauge with the recent jobs only.
	queueWait histVec
	runWall   histVec
	rpsHist   histVec
	window    throughputWindow

	vars *expvar.Map
}

func newMetrics() *metrics {
	m := &metrics{vars: new(expvar.Map).Init()}
	m.vars.Set("jobs_queued", &m.jobsQueued)
	m.vars.Set("jobs_running", &m.jobsRunning)
	m.vars.Set("jobs_done", &m.jobsDone)
	m.vars.Set("jobs_failed", &m.jobsFailed)
	m.vars.Set("jobs_rejected", &m.jobsRejected)
	m.vars.Set("jobs_shed", &m.jobsShed)
	m.vars.Set("cache_hits", &m.cacheHits)
	m.vars.Set("cache_misses", &m.cacheMisses)
	m.vars.Set("ledger_hits", &m.ledgerHits)
	m.vars.Set("ledger_errors", &m.ledgerErrors)
	m.vars.Set("sim_rounds", &m.simRounds)
	m.vars.Set("batches", &m.batches)
	m.vars.Set("jobs_batched", &m.jobsBatched)
	m.vars.Set("queue_wait_ns", &m.queueWait)
	m.vars.Set("run_wall_ns", &m.runWall)
	m.vars.Set("rounds_per_sec_hist", &m.rpsHist)
	m.vars.Set("cache_hit_rate", expvar.Func(func() any {
		hits, misses := m.cacheHits.Value(), m.cacheMisses.Value()
		if hits+misses == 0 {
			return 0.0
		}
		return float64(hits) / float64(hits+misses)
	}))
	m.vars.Set("rounds_per_sec", expvar.Func(func() any {
		return m.window.rate()
	}))
	m.vars.Set("arena_pool", expvar.Func(func() any {
		hits, misses := engine.PoolStats()
		return map[string]int64{"hits": hits, "misses": misses}
	}))
	m.vars.Set("scratch_pool", expvar.Func(func() any {
		hits, misses := engine.ScratchStats()
		return map[string]int64{"hits": hits, "misses": misses}
	}))
	// Per-size-class splits behind the aggregates: keys are the mailbox
	// shape ("n=64,wpp=1,arena") and the scratch class capacity in words
	// ("4096w", "oversize"). A persistently missing key pinpoints the
	// workload shape defeating the pools.
	m.vars.Set("arena_pool_by_shape", expvar.Func(func() any {
		out := map[string]map[string]int64{}
		for _, s := range engine.PoolShapeStats() {
			layout := "slices"
			if s.Arena {
				layout = "arena"
			}
			key := fmt.Sprintf("n=%d,wpp=%d,%s", s.N, s.WordsPerPair, layout)
			out[key] = map[string]int64{"hits": s.Hits, "misses": s.Misses}
		}
		return out
	}))
	m.vars.Set("scratch_pool_by_class", expvar.Func(func() any {
		out := map[string]map[string]int64{}
		for _, s := range engine.ScratchClassStats() {
			key := "oversize"
			if s.Words > 0 {
				key = fmt.Sprintf("%dw", s.Words)
			}
			out[key] = map[string]int64{"hits": s.Hits, "misses": s.Misses}
		}
		return out
	}))
	return m
}

// Vars exposes the server's metrics map, e.g. for publishing under a
// name in the process-global expvar namespace.
func (s *Server) Vars() *expvar.Map { return s.metrics.vars }

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	fmt.Fprintln(w, s.metrics.vars.String())
}
