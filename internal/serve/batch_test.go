package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/clique"
	"repro/internal/exp"
	"repro/internal/workload"
)

func init() {
	workload.Register(workload.Algorithm{
		Name: "test-overflow", Title: "test-only: violates the word budget", WPP: 1,
		New: func(n int, seed uint64) workload.Instance {
			return workload.Instance{Program: func(nd *clique.Node) {
				nd.Send((nd.ID()+1)%nd.N(), 1, 2)
				nd.Tick()
			}}
		},
	})
	workload.Register(workload.Algorithm{
		Name: "test-failed-check", Title: "test-only: every Check fails", WPP: 1,
		New: func(n int, seed uint64) workload.Instance {
			return workload.Instance{Program: func(nd *clique.Node) { nd.Tick() },
				Check: func() error { return errors.New("forged witness") }}
		},
	})
	workload.Register(workload.Algorithm{
		Name: "test-wrong-answer", Title: "test-only: answers 1, oracle says 2", WPP: 1,
		New: func(n int, seed uint64) workload.Instance {
			return workload.Instance{Program: func(nd *clique.Node) { nd.Tick() },
				Answer: func() any { return 1 }, Oracle: func() any { return 2 }}
		},
	})
}

// adhocEntry builds a queued-looking entry for a canonical ad-hoc
// request, the way schedule would.
func adhocEntry(alg string, n int, wpp int, seed uint64) *entry {
	req := exp.Request{Kind: exp.KindAdhoc, Algorithm: alg, N: n,
		WordsPerPair: wpp, Seed: seed, Backend: "lockstep"}
	return newEntry(req.Hash(), req)
}

// bareServer builds a Server without starting its worker pool, so tests
// drive worker/coalesce deterministically.
func bareServer(cfg Config) *Server {
	return &Server{
		cfg:     cfg.withDefaults(),
		metrics: newMetrics(),
		cache:   newResultCache(64),
		queue:   make(chan *entry, 64),
		baseCtx: context.Background(),
	}
}

// TestBatchedEnvelopeBytesMatchSerial is the serving-layer equivalence
// pin: a coalesced group's envelopes (and error strings, for a
// violating workload) must be byte-identical to what serial runJob
// produces for the same requests. Besides the named cases, every
// catalogue entry but the test-only ones runs at n = 16 with its
// default budget.
func TestBatchedEnvelopeBytesMatchSerial(t *testing.T) {
	type batchCase struct {
		name, alg string
		n, wpp    int
		wantErr   bool
	}
	cases := []batchCase{
		{"exchange", "exchange", 16, 1, false},
		{"triangle", "triangle", 24, 1, false},
		{"test-overflow", "test-overflow", 4, 1, true},
	}
	for _, a := range workload.All() {
		if !strings.HasPrefix(a.Name, "test-") {
			cases = append(cases, batchCase{"catalogue/" + a.Name, a.Name, 16, a.WPP, false})
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const width = 4
			serial := bareServer(Config{Workers: 1})
			batched := bareServer(Config{Workers: 1, BatchWidth: width})

			var want [][]byte
			var wantErrs []error
			for seed := uint64(1); seed <= width; seed++ {
				e := adhocEntry(tc.alg, tc.n, tc.wpp, seed)
				serial.runJob(e)
				<-e.done
				want = append(want, e.data)
				wantErrs = append(wantErrs, e.err)
			}

			group := make([]*entry, width)
			for i := range group {
				group[i] = adhocEntry(tc.alg, tc.n, tc.wpp, uint64(i+1))
			}
			batched.runJobBatch(group)
			for i, e := range group {
				<-e.done
				if tc.wantErr {
					if e.err == nil || wantErrs[i] == nil {
						t.Fatalf("seed %d: batched err %v, serial err %v", i+1, e.err, wantErrs[i])
					}
					if e.err.Error() != wantErrs[i].Error() {
						t.Fatalf("seed %d: batched err %q, serial err %q", i+1, e.err, wantErrs[i])
					}
					continue
				}
				if e.err != nil {
					t.Fatalf("seed %d: batched job failed: %v", i+1, e.err)
				}
				if !bytes.Equal(e.data, want[i]) {
					t.Fatalf("seed %d: batched envelope differs from serial:\nbatched: %s\nserial:  %s",
						i+1, e.data, want[i])
				}
			}
			if got := batched.metrics.batches.Value(); got != 1 {
				t.Fatalf("batches = %d, want 1", got)
			}
			if got := batched.metrics.jobsBatched.Value(); got != width {
				t.Fatalf("jobs_batched = %d, want %d", got, width)
			}
		})
	}
}

// TestWorkerCoalescesQueuedJobs drives one worker over a pre-filled
// queue: the same-shape majority coalesces into one batched execution,
// the odd-shape job still runs (serially), and every job completes with
// the bytes its serial twin produces.
func TestWorkerCoalescesQueuedJobs(t *testing.T) {
	s := bareServer(Config{Workers: 1, BatchWidth: 8})

	var entries []*entry
	for seed := uint64(1); seed <= 4; seed++ {
		entries = append(entries, adhocEntry("exchange", 12, 1, seed))
	}
	odd := adhocEntry("triangle", 12, 1, 1)
	entries = append(entries, odd)
	for _, e := range entries {
		if err := s.enqueue(e); err != nil {
			t.Fatalf("enqueue: %v", err)
		}
	}
	s.workers.Add(1)
	go s.worker()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for i, e := range entries {
		<-e.done
		if e.err != nil {
			t.Fatalf("entry %d failed: %v", i, e.err)
		}
	}

	if got := s.metrics.batches.Value(); got != 1 {
		t.Fatalf("batches = %d, want 1", got)
	}
	if got := s.metrics.jobsBatched.Value(); got != 4 {
		t.Fatalf("jobs_batched = %d, want 4", got)
	}
	if got := s.metrics.jobsDone.Value(); got != int64(len(entries)) {
		t.Fatalf("jobs_done = %d, want %d", got, len(entries))
	}
	if got := s.metrics.jobsQueued.Value(); got != 0 {
		t.Fatalf("jobs_queued = %d, want 0 after drain", got)
	}

	serial := bareServer(Config{Workers: 1})
	for i, e := range entries {
		twin := newEntry(e.hash, e.req)
		serial.runJob(twin)
		<-twin.done
		if !bytes.Equal(e.data, twin.data) {
			t.Fatalf("entry %d: coalesced bytes differ from serial", i)
		}
	}
}

// TestBatchWidthEndToEnd exercises live coalescing through the HTTP
// surface under concurrency: whether or not any given pair coalesced is
// scheduling-dependent, but every response must carry the serial bytes.
func TestBatchWidthEndToEnd(t *testing.T) {
	batched := newTestServer(t, Config{Workers: 2, QueueDepth: 64, BatchWidth: 4})
	serial := newTestServer(t, Config{Workers: 2, QueueDepth: 64})

	const seeds = 8
	bodies := make([]string, seeds)
	var wg sync.WaitGroup
	for i := 0; i < seeds; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"algorithm":"exchange","n":16,"seed":%d}`, i)
			rec := do(t, batched, "POST", "/v1/run", body)
			if rec.Code == 200 {
				bodies[i] = rec.Body.String()
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < seeds; i++ {
		if bodies[i] == "" {
			t.Fatalf("seed %d: batched server failed", i)
		}
		body := fmt.Sprintf(`{"algorithm":"exchange","n":16,"seed":%d}`, i)
		rec := do(t, serial, "POST", "/v1/run", body)
		if rec.Code != 200 {
			t.Fatalf("seed %d: serial server status %d", i, rec.Code)
		}
		if rec.Body.String() != bodies[i] {
			t.Fatalf("seed %d: batched response differs from serial", i)
		}
	}
}

// TestForgedAnswersServedAlike runs forged entries alone and coalesced:
// a run whose Check fails answers 500 on both paths with the same
// error, naming the run and typed workload.ErrFailedCheck, and leaves
// the ledger empty. A wrong
// answer has no Check, and the daemon does not run the oracle, so both
// paths serve it unconfirmed with the same bytes.
func TestForgedAnswersServedAlike(t *testing.T) {
	const width = 3
	run := func(alg string, batched bool) ([]*entry, int64) {
		l := openLedger(t, filepath.Join(t.TempDir(), "ledger.clq"))
		group := make([]*entry, width)
		for i := range group {
			group[i] = adhocEntry(alg, 4, 1, uint64(i+1))
		}
		if batched {
			bareServer(Config{Workers: 1, BatchWidth: width, Ledger: l}).runJobBatch(group)
		} else {
			s := bareServer(Config{Workers: 1, Ledger: l})
			for _, e := range group {
				s.runJob(e)
			}
		}
		for _, e := range group {
			<-e.done
		}
		return group, l.Len()
	}
	for _, batched := range []bool{false, true} {
		group, records := run("test-failed-check", batched)
		for i, e := range group {
			if e.err == nil || runErrorStatus(e.err) != http.StatusInternalServerError ||
				!strings.Contains(e.err.Error(), fmt.Sprintf("exp adhoc:test-failed-check: test-failed-check n=4 seed=%d: failed check: forged witness", i+1)) {
				t.Errorf("batched=%v seed %d: err %v", batched, i+1, e.err)
			}
			if !errors.Is(e.err, workload.ErrFailedCheck) {
				t.Errorf("batched=%v seed %d: err %v is not workload.ErrFailedCheck", batched, i+1, e.err)
			}
		}
		if records != 0 {
			t.Errorf("batched=%v: %d ledger records after failed checks", batched, records)
		}
	}
	alone, _ := run("test-wrong-answer", false)
	coalesced, records := run("test-wrong-answer", true)
	for i := range alone {
		if a, c := alone[i], coalesced[i]; a.err != nil || c.err != nil || !bytes.Equal(a.data, c.data) {
			t.Errorf("wrong answer seed %d: alone %v, coalesced %v", i+1, a.err, c.err)
		}
	}
	if records != width {
		t.Errorf("wrong answer: %d ledger records, want %d", records, width)
	}
}
