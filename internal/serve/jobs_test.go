package serve

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clique"
	"repro/internal/workload"
)

// blockGate lets tests hold a worker hostage deterministically: the
// test-only "test-block" algorithm runs a single-node program that
// parks on the gate until released.
var blockGate = struct {
	mu sync.Mutex
	ch chan struct{}
}{}

func armBlockGate() (release func()) {
	blockGate.mu.Lock()
	ch := make(chan struct{})
	blockGate.ch = ch
	blockGate.mu.Unlock()
	var once sync.Once
	return func() { once.Do(func() { close(ch) }) }
}

func init() {
	workload.Register(workload.Algorithm{
		Name: "test-block", Title: "test-only: parks until the gate opens", WPP: 1,
		New: func(n int, seed uint64) workload.Instance {
			return workload.Instance{Program: func(nd *clique.Node) {
				blockGate.mu.Lock()
				ch := blockGate.ch
				blockGate.mu.Unlock()
				if ch != nil {
					<-ch
				}
			}}
		},
	})
	workload.Register(workload.Algorithm{
		Name: "test-panic", Title: "test-only: panics during instance generation", WPP: 1,
		New: func(n int, seed uint64) workload.Instance {
			panic("test-panic: instance generation exploded")
		},
	})
}

// TestWorkerSurvivesPanickingJob pins that a panic escaping the
// experiment body fails the one job (500) without killing the worker:
// the daemon keeps serving afterwards.
func TestWorkerSurvivesPanickingJob(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	rec := do(t, s, "POST", "/v1/run", `{"algorithm":"test-panic","n":2,"seed":1}`)
	if rec.Code != 500 {
		t.Fatalf("panicking job: status %d, want 500 (body: %s)", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "panicked") {
		t.Fatalf("panicking job error body: %s", rec.Body.String())
	}
	if s.metrics.jobsFailed.Value() != 1 {
		t.Fatalf("jobs_failed = %d, want 1", s.metrics.jobsFailed.Value())
	}

	// The lone worker must still be alive and serving.
	if rec := do(t, s, "POST", "/v1/run", `{"algorithm":"exchange","n":8,"seed":1}`); rec.Code != 200 {
		t.Fatalf("post-panic run: status %d, want 200", rec.Code)
	}
}

// TestConcurrentIdenticalRequestsCoalesce is the queue/cache race test:
// many goroutines fire the same request at once; exactly one simulation
// runs and every caller gets the same bytes. Run under -race in CI.
func TestConcurrentIdenticalRequestsCoalesce(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, QueueDepth: 32})

	const callers = 16
	body := `{"algorithm":"triangle","n":48,"seed":9,"backend":"lockstep"}`
	responses := make([]string, callers)
	codes := make([]int, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := do(t, s, "POST", "/v1/run", body)
			codes[i], responses[i] = rec.Code, rec.Body.String()
		}(i)
	}
	wg.Wait()

	for i := 0; i < callers; i++ {
		if codes[i] != 200 {
			t.Fatalf("caller %d: status %d: %s", i, codes[i], responses[i])
		}
		if responses[i] != responses[0] {
			t.Fatalf("caller %d got different bytes than caller 0", i)
		}
	}
	if misses := s.metrics.cacheMisses.Value(); misses != 1 {
		t.Fatalf("%d identical concurrent requests caused %d simulations, want 1", callers, misses)
	}
	if hits := s.metrics.cacheHits.Value(); hits != callers-1 {
		t.Fatalf("cache hits = %d, want %d", hits, callers-1)
	}
}

// TestConcurrentMixedRequests races distinct and identical requests
// through a small worker pool.
func TestConcurrentMixedRequests(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4, QueueDepth: 64})

	const seeds = 6
	const repeats = 4
	var wg sync.WaitGroup
	results := make([][]string, seeds)
	for seed := 0; seed < seeds; seed++ {
		results[seed] = make([]string, repeats)
		for rep := 0; rep < repeats; rep++ {
			wg.Add(1)
			go func(seed, rep int) {
				defer wg.Done()
				body := fmt.Sprintf(`{"algorithm":"exchange","n":16,"seed":%d}`, seed)
				rec := do(t, s, "POST", "/v1/run", body)
				if rec.Code == 200 {
					results[seed][rep] = rec.Body.String()
				}
			}(seed, rep)
		}
	}
	wg.Wait()

	for seed := 0; seed < seeds; seed++ {
		for rep := 0; rep < repeats; rep++ {
			if results[seed][rep] == "" {
				t.Fatalf("seed %d repeat %d failed", seed, rep)
			}
			if results[seed][rep] != results[seed][0] {
				t.Fatalf("seed %d: repeat %d bytes differ", seed, rep)
			}
		}
	}
	if misses := s.metrics.cacheMisses.Value(); misses != seeds {
		t.Fatalf("misses = %d, want %d (one per distinct request)", misses, seeds)
	}
}

// TestQueueFullRejects pins load shedding: with the lone worker parked
// and the queue at capacity, the next distinct request is answered 503
// immediately, and a retry after the flood succeeds.
func TestQueueFullRejects(t *testing.T) {
	release := armBlockGate()
	defer release()

	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	// Park the worker.
	blockerDone := make(chan struct{})
	go func() {
		defer close(blockerDone)
		do(t, s, "POST", "/v1/run", `{"algorithm":"test-block","n":1,"seed":1}`)
	}()
	waitFor(t, func() bool { return s.metrics.jobsRunning.Value() == 1 })

	// Fill the queue (capacity 1) with a second distinct request.
	queuedDone := make(chan struct{})
	go func() {
		defer close(queuedDone)
		do(t, s, "POST", "/v1/run", `{"algorithm":"test-block","n":1,"seed":2}`)
	}()
	waitFor(t, func() bool { return s.metrics.jobsQueued.Value() == 1 })

	// The queue is full: a third distinct request must be shed.
	rec := do(t, s, "POST", "/v1/run", `{"algorithm":"test-block","n":1,"seed":3}`)
	if rec.Code != 503 {
		t.Fatalf("status %d, want 503 (body: %s)", rec.Code, rec.Body.String())
	}
	if s.metrics.jobsRejected.Value() != 1 {
		t.Fatalf("jobs_rejected = %d, want 1", s.metrics.jobsRejected.Value())
	}

	release()
	<-blockerDone
	<-queuedDone

	// The shed request was not poisoned: it runs fine now.
	if rec := do(t, s, "POST", "/v1/run", `{"algorithm":"test-block","n":1,"seed":3}`); rec.Code != 200 {
		t.Fatalf("retry after shed: status %d: %s", rec.Code, rec.Body.String())
	}
}

// TestShutdownRejectsNewWork pins graceful shutdown: after Shutdown,
// run requests are answered 503 and read-only endpoints still work.
func TestShutdownRejectsNewWork(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	if rec := do(t, s, "POST", "/v1/run", `{"algorithm":"exchange","n":8}`); rec.Code != 200 {
		t.Fatalf("pre-shutdown run: status %d", rec.Code)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if rec := do(t, s, "POST", "/v1/run", `{"algorithm":"exchange","n":8,"seed":99}`); rec.Code != 503 {
		t.Fatalf("post-shutdown run: status %d, want 503", rec.Code)
	}
	if rec := do(t, s, "GET", "/healthz", ""); rec.Code != 200 {
		t.Fatalf("post-shutdown healthz: status %d, want 200", rec.Code)
	}
	// Cached results are still served without workers.
	if rec := do(t, s, "POST", "/v1/run", `{"algorithm":"exchange","n":8}`); rec.Code != 200 {
		t.Fatalf("post-shutdown cached run: status %d, want 200", rec.Code)
	}
	// Idempotent.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within deadline")
		}
		time.Sleep(time.Millisecond)
	}
}
