package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/ledger"
)

// installFaults swaps a fault plan in for the test's duration. Fault
// plans are process-global, so tests using them must not be parallel.
func installFaults(t *testing.T, spec string) *fault.Plan {
	t.Helper()
	plan, err := fault.Parse(spec)
	if err != nil {
		t.Fatalf("fault.Parse(%q): %v", spec, err)
	}
	prev := fault.Install(plan)
	t.Cleanup(func() { fault.Install(prev) })
	return plan
}

// openLedger opens a scratch ledger the test's server can own.
func openLedger(t *testing.T, path string) *ledger.Ledger {
	t.Helper()
	l, _, err := ledger.Open(path)
	if err != nil {
		t.Fatalf("ledger.Open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// TestJobDeadline504 pins the deadline leg of the error taxonomy: a
// job that exceeds its wall-clock budget answers 504 Gateway Timeout —
// not the 503 a shed or shutdown produces, not the 500 a panic does —
// and does so promptly: cancellation latency is bounded by the next
// simulated-run boundary (here: the injected stall's end), not by the
// job's natural duration.
func TestJobDeadline504(t *testing.T) {
	installFaults(t, "stall@job.run:ms=300")
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 4, JobTimeout: 30 * time.Millisecond})

	start := time.Now()
	rec := do(t, s, "POST", "/v1/run", `{"algorithm":"exchange","n":8,"seed":1}`)
	elapsed := time.Since(start)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (body: %s)", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "deadline") {
		t.Fatalf("504 body does not name the deadline: %s", rec.Body.String())
	}
	// Latency bound: budget (30ms) + the stall the worker was stuck in
	// (300ms) + scheduling slack. Anywhere near the full second would
	// mean cancellation is not taking effect at the boundary.
	if elapsed > 1500*time.Millisecond {
		t.Fatalf("deadline response took %v — cancellation latency unbounded", elapsed)
	}
}

// TestBatchedJobDeadline504 is TestJobDeadline504's batched twin: jobs
// coalesced behind a stalled leader run as one batched execution, which
// stalls at the same injection point. Each job's budget runs from the
// start of the batch, so every job in it must answer 504, exactly as
// each would have on the serial path.
func TestBatchedJobDeadline504(t *testing.T) {
	installFaults(t, "stall@job.run:ms=300")
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 8, BatchWidth: 4, JobTimeout: 30 * time.Millisecond})

	const jobs = 4 // a leader plus three same-shape followers
	codes := make([]int, jobs)
	bodies := make([]string, jobs)
	var wg sync.WaitGroup
	post := func(i int) {
		defer wg.Done()
		rec := do(t, s, "POST", "/v1/run", fmt.Sprintf(`{"algorithm":"exchange","n":8,"seed":%d}`, 100+i))
		codes[i], bodies[i] = rec.Code, rec.Body.String()
	}
	wg.Add(1)
	go post(0)
	// Queue the followers only once the single worker holds the leader,
	// so they coalesce into one batch behind it.
	for deadline := time.Now().Add(5 * time.Second); s.metrics.jobsRunning.Value() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the worker never picked up the leader")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 1; i < jobs; i++ {
		wg.Add(1)
		go post(i)
	}
	wg.Wait()

	if got := s.metrics.batches.Value(); got < 1 {
		t.Fatalf("batches = %d: the followers never coalesced", got)
	}
	for i := range codes {
		if codes[i] != http.StatusGatewayTimeout {
			t.Fatalf("job %d: status %d, want 504 (body: %s)", i, codes[i], bodies[i])
		}
		if !strings.Contains(bodies[i], "deadline") {
			t.Fatalf("job %d: 504 body does not name the deadline: %s", i, bodies[i])
		}
	}
}

// TestBatchedRunOutlastingBudget200 pins where the batched path checks
// a job's budget: once, at the run boundary, as the serial path does.
// Every run here starts in time and then parks past its budget; the
// serial job and every job in the batch must still answer with their
// envelope, not errJobTimeout, and the two must be byte-identical.
func TestBatchedRunOutlastingBudget200(t *testing.T) {
	const budget = 50 * time.Millisecond
	const width = 3
	entries := func() []*entry {
		es := make([]*entry, width)
		for i := range es {
			es[i] = adhocEntry("test-block", 4, 1, uint64(i+1))
			es[i].timeout = budget
		}
		return es
	}
	// park runs body while the test-block runs are parked on the gate,
	// opening it only once every budget has run out.
	park := func(body func()) {
		release := armBlockGate()
		defer release()
		go func() {
			time.Sleep(6 * budget)
			release()
		}()
		start := time.Now()
		body()
		if time.Since(start) < budget {
			t.Fatalf("the runs took %v, inside the %v budget", time.Since(start), budget)
		}
	}

	serial := entries()
	park(func() {
		s := bareServer(Config{Workers: 1})
		for _, e := range serial {
			go s.runJob(e)
		}
		for _, e := range serial {
			<-e.done
		}
	})
	batched := entries()
	park(func() {
		bareServer(Config{Workers: 1, BatchWidth: width}).runJobBatch(batched)
	})
	for i := range batched {
		if serial[i].err != nil {
			t.Fatalf("serial job %d: %v", i, serial[i].err)
		}
		if batched[i].err != nil {
			t.Fatalf("batched job %d: %v, want the serial envelope", i, batched[i].err)
		}
		if !bytes.Equal(batched[i].data, serial[i].data) {
			t.Fatalf("job %d: batched envelope differs from serial:\nbatched: %s\nserial:  %s",
				i, batched[i].data, serial[i].data)
		}
	}
}

// TestPerRequestTimeoutCapped pins that timeout_ms can shrink the
// budget but never grow it past the server's JobTimeout cap.
func TestPerRequestTimeoutCapped(t *testing.T) {
	installFaults(t, "stall@job.run:ms=300")
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 4, JobTimeout: 30 * time.Millisecond})

	// Asks for 10s; the cap holds it to 30ms, so the stalled job still
	// times out.
	rec := do(t, s, "POST", "/v1/run", `{"algorithm":"exchange","n":8,"seed":2,"timeout_ms":10000}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: cap did not hold (body: %s)", rec.Code, rec.Body.String())
	}

	if rec := do(t, s, "POST", "/v1/run", `{"algorithm":"exchange","n":8,"seed":3,"timeout_ms":-5}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("negative timeout_ms: status %d, want 400", rec.Code)
	}
}

// TestPerRequestTimeoutWithoutServerCap pins the uncapped server: a
// request-supplied budget is honoured as-is.
func TestPerRequestTimeoutWithoutServerCap(t *testing.T) {
	installFaults(t, "stall@job.run:ms=300")
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	rec := do(t, s, "POST", "/v1/run", `{"algorithm":"exchange","n":8,"seed":4,"timeout_ms":30}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (body: %s)", rec.Code, rec.Body.String())
	}
	// And with no budget at all the stalled job still completes: 200.
	rec = do(t, s, "POST", "/v1/run", `{"algorithm":"exchange","n":8,"seed":5}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("unbudgeted job: status %d, want 200 (body: %s)", rec.Code, rec.Body.String())
	}
}

// TestQueueFullShedsWithRetryAfter pins the shed leg: a full queue
// answers 503 with a Retry-After header derived from the recent-jobs
// wall-time window, and the shed is counted on its own metric beside
// the aggregate rejected counter.
func TestQueueFullShedsWithRetryAfter(t *testing.T) {
	release := armBlockGate()
	defer release()
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1, JobTimeout: 0})

	// Park the single worker on the gate and fill the single queue slot
	// with distinct requests, then overflow. Scheduling is synchronous
	// (enqueue happens before the handler waits), so issuing the
	// requests from goroutines and polling the queued metric is
	// race-free, and the gate holds the backlog until the test opens it.
	finished := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			do(t, s, "POST", "/v1/run", fmt.Sprintf(`{"algorithm":"test-block","n":1,"seed":%d}`, 100+i))
			finished <- struct{}{}
		}(i)
	}
	waitFor(t, func() bool { return s.metrics.jobsQueued.Value()+s.metrics.jobsRunning.Value() == 2 })

	rec := do(t, s, "POST", "/v1/run", `{"algorithm":"test-block","n":1,"seed":999}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("overflow status %d, want 503 (body: %s)", rec.Code, rec.Body.String())
	}
	ra := rec.Header().Get("Retry-After")
	if ra == "" {
		t.Fatal("shed 503 carries no Retry-After header")
	}
	var secs int
	if _, err := fmt.Sscanf(ra, "%d", &secs); err != nil || secs < 1 || secs > 60 {
		t.Fatalf("Retry-After %q is not a sane second count", ra)
	}
	if got := s.metrics.jobsShed.Value(); got != 1 {
		t.Fatalf("jobs_shed = %d, want 1", got)
	}
	if !strings.Contains(do(t, s, "GET", "/metrics", "").Body.String(), `"jobs_shed"`) {
		t.Fatal("/metrics does not expose jobs_shed")
	}
	release()
	<-finished
	<-finished
}

// TestLedgerWriteThrough pins the durable tier: a computed envelope
// lands in the ledger keyed by the canonical request hash, a second
// server over the same file serves it byte-identically without
// simulating, and traced envelopes stay out of the ledger.
func TestLedgerWriteThrough(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.clq")
	l := openLedger(t, path)
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 4, Ledger: l})

	body := `{"algorithm":"triangle","n":24,"seed":9,"backend":"lockstep"}`
	first := do(t, s, "POST", "/v1/run", body)
	if first.Code != 200 {
		t.Fatalf("run: status %d: %s", first.Code, first.Body.String())
	}
	hash := first.Header().Get("X-Request-Hash")
	if hash == "" {
		t.Fatal("response missing X-Request-Hash")
	}
	stored, err := l.Get(hash)
	if err != nil {
		t.Fatalf("envelope not in ledger under its request hash: %v", err)
	}
	if string(stored) != first.Body.String() {
		t.Fatal("ledger stores different bytes than were served")
	}

	// A traced request must not be persisted: its envelope embeds
	// wall-clock data and is not a reproducible artefact.
	traced := do(t, s, "POST", "/v1/run?trace=1", body)
	if traced.Code != 200 {
		t.Fatalf("traced run: status %d", traced.Code)
	}
	if l.Len() != 1 {
		t.Fatalf("ledger has %d records after a traced run, want still 1", l.Len())
	}

	// "Restart": a fresh server (empty memory cache) over a reopened
	// ledger serves the envelope from disk, byte-identically, without
	// scheduling a simulation.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	l.Close()
	l2 := openLedger(t, path)
	s2 := newTestServer(t, Config{Workers: 1, QueueDepth: 4, Ledger: l2})
	second := do(t, s2, "POST", "/v1/run", body)
	if second.Code != 200 {
		t.Fatalf("post-restart run: status %d", second.Code)
	}
	if second.Body.String() != first.Body.String() {
		t.Fatal("post-restart envelope differs from the pre-restart one")
	}
	if hits := s2.metrics.ledgerHits.Value(); hits != 1 {
		t.Fatalf("ledger_hits = %d, want 1", hits)
	}
	if s2.metrics.jobsDone.Value() != 0 {
		t.Fatal("post-restart request simulated instead of serving from the ledger")
	}
	if !strings.Contains(do(t, s2, "GET", "/metrics", "").Body.String(), `"ledger_hits"`) {
		t.Fatal("/metrics does not expose ledger counters")
	}
}

// TestLedgerStatsEndpoint pins GET /v1/ledger/stats: 404 without a
// ledger, the integrity view with one.
func TestLedgerStatsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	if rec := do(t, s, "GET", "/v1/ledger/stats", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("no ledger: status %d, want 404", rec.Code)
	}

	l := openLedger(t, filepath.Join(t.TempDir(), "ledger.clq"))
	s2 := newTestServer(t, Config{Workers: 1, QueueDepth: 4, Ledger: l})
	if rec := do(t, s2, "POST", "/v1/run", `{"algorithm":"exchange","n":8,"seed":1}`); rec.Code != 200 {
		t.Fatalf("run: status %d", rec.Code)
	}
	rec := do(t, s2, "GET", "/v1/ledger/stats", "")
	if rec.Code != 200 {
		t.Fatalf("stats: status %d", rec.Code)
	}
	for _, field := range []string{`"records": 1`, `"chain_head"`, `"bytes"`} {
		if !strings.Contains(rec.Body.String(), field) {
			t.Fatalf("stats body missing %s: %s", field, rec.Body.String())
		}
	}
}

// TestLedgerFaultDegradesNotFails pins that a broken disk degrades
// durability, never availability: with every ledger write failing, the
// daemon still serves correct envelopes and counts the failures.
func TestLedgerFaultDegradesNotFails(t *testing.T) {
	installFaults(t, "io-error@ledger.write")
	l := openLedger(t, filepath.Join(t.TempDir(), "ledger.clq"))
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 4, Ledger: l})

	rec := do(t, s, "POST", "/v1/run", `{"algorithm":"exchange","n":8,"seed":6}`)
	if rec.Code != 200 {
		t.Fatalf("run with failing ledger: status %d, want 200 (body: %s)", rec.Code, rec.Body.String())
	}
	if s.metrics.ledgerErrors.Value() == 0 {
		t.Fatal("failed append not counted on ledger_errors")
	}
	if l.Len() != 0 {
		t.Fatal("append was supposed to fail")
	}
}
