// Command cliqued is the long-running congested clique simulation
// service: an HTTP/JSON daemon over the internal/exp experiment
// registry and the internal/clique simulator (package serve has the
// full endpoint and architecture documentation).
//
// Usage:
//
//	cliqued                             # serve on :8347
//	cliqued -addr :9000 -workers 4      # explicit socket and pool width
//	cliqued -backend goroutine          # default engine for requests
//
// Quickstart against a running daemon:
//
//	curl localhost:8347/healthz
//	curl localhost:8347/v1/experiments
//	curl -X POST localhost:8347/v1/experiments/fig1:run -d '{"quick":true}'
//	curl -X POST localhost:8347/v1/run -d '{"algorithm":"triangle","n":64,"seed":7}'
//	curl -N 'localhost:8347/v1/experiments/thm9:run?stream=sse' -X POST
//
// SIGINT/SIGTERM drain gracefully: the listener stops, queued and
// running jobs finish (up to -drain), pending ledger appends are
// fsync'd, then the process exits.
//
// Durability: -ledger names an append-only, hash-chained result store;
// computed envelopes survive restarts and SIGKILL (the file recovers
// its committed prefix on reopen). -verify-ledger scans a ledger file
// offline and exits. -job-timeout caps every job's wall budget (504 on
// overrun). CLIQUE_FAULTS, when set, installs the deterministic fault
// plan at boot — chaos testing only; a malformed spec is fatal.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/clique"
	"repro/internal/fault"
	"repro/internal/ledger"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8347", "listen address")
	workers := flag.Int("workers", 0, "job worker pool width (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 64, "bounded job queue depth (full queue answers 503)")
	cacheEntries := flag.Int("cache", 256, "completed-result cache capacity (FIFO eviction)")
	backend := flag.String("backend", clique.DefaultBackend,
		"default execution backend for requests that name none ("+strings.Join(serve.Backends(), ", ")+")")
	drain := flag.Duration("drain", 30*time.Second, "graceful shutdown deadline for in-flight jobs")
	batchWidth := flag.Int("batch-width", 1,
		"max queued ad-hoc jobs coalesced into one batched engine execution (1 = off)")
	ledgerPath := flag.String("ledger", "",
		"durable result ledger file (empty = no persistence); computed envelopes survive restarts")
	jobTimeout := flag.Duration("job-timeout", 0,
		"per-job wall-clock budget cap, 0 = none (overrun answers 504; requests may shrink via timeout_ms)")
	verifyLedger := flag.String("verify-ledger", "",
		"scan the named ledger file read-only, print its integrity report, and exit")
	flag.Parse()

	if *verifyLedger != "" {
		os.Exit(runVerifyLedger(*verifyLedger))
	}

	// Catch operator typos at boot, not as a 400 on every request — and
	// a malformed CLIQUE_FAULTS spec before it silently runs no faults.
	if !slices.Contains(serve.Backends(), *backend) {
		log.Fatalf("cliqued: unknown -backend %q (have: %s)", *backend, strings.Join(serve.Backends(), ", "))
	}
	if err := fault.EnvError(); err != nil {
		log.Fatalf("cliqued: %v", err)
	}
	if plan := fault.Active(); plan != nil {
		log.Printf("cliqued: WARNING: fault injection active (%d clauses from $CLIQUE_FAULTS)", len(plan.Counts()))
	}

	var led *ledger.Ledger
	if *ledgerPath != "" {
		var stats ledger.OpenStats
		var err error
		led, stats, err = ledger.Open(*ledgerPath)
		if err != nil {
			log.Fatalf("cliqued: open ledger: %v", err)
		}
		defer led.Close()
		suffix := ""
		if stats.TruncatedBytes > 0 {
			suffix = fmt.Sprintf(", truncated %d torn tail bytes", stats.TruncatedBytes)
		}
		log.Printf("cliqued: ledger %s: %d records recovered%s", *ledgerPath, stats.Records, suffix)
	}

	s := serve.New(serve.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheEntries:   *cacheEntries,
		DefaultBackend: *backend,
		BatchWidth:     *batchWidth,
		JobTimeout:     *jobTimeout,
		Ledger:         led,
	})
	// Make the service counters visible to standard expvar tooling as
	// well as at the service's own /metrics endpoint.
	expvar.Publish("cliqued", s.Vars())

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	workersLabel := "auto"
	if *workers > 0 {
		workersLabel = fmt.Sprint(*workers)
	}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("cliqued: serving on %s (workers=%s, queue=%d, cache=%d, backend=%s, batch-width=%d)",
			*addr, workersLabel, *queue, *cacheEntries, *backend, *batchWidth)
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		log.Fatalf("cliqued: %v", err)
	case <-ctx.Done():
	}

	log.Printf("cliqued: shutting down (drain %v)", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		log.Printf("cliqued: http shutdown: %v", err)
	}
	if err := s.Shutdown(drainCtx); err != nil {
		log.Printf("cliqued: job drain: %v", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("cliqued: listener: %v", err)
	}
	fmt.Println("cliqued: bye")
}

// runVerifyLedger is the -verify-ledger mode: scan, print the report
// as JSON, exit 0 if the whole file verifies (no torn tail), 1 if a
// torn tail was found, 2 on a broken chain or unreadable file. The
// smoke scripts key off these exit codes.
func runVerifyLedger(path string) int {
	rep, err := ledger.Verify(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cliqued: verify-ledger: %v\n", err)
		return 2
	}
	out, _ := json.MarshalIndent(rep, "", "  ")
	fmt.Println(string(out))
	if !rep.OK {
		return 1
	}
	return 0
}
