package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/exp"
	"repro/internal/ledger"
	"repro/internal/serve"
	"repro/internal/workload"
)

// daemon is an in-process cliqued: a serve.Server with cliqued's
// default configuration on a loopback listener, with a ledger as its
// durable tier, and a keep-alive client holding at most conns
// connections.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	served chan error
	client *http.Client
}

func startDaemon(led *ledger.Ledger, conns int) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{Ledger: led})
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		url:    "http://" + ln.Addr().String() + "/v1/run",
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}},
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop drains the way cliqued does on SIGTERM, HTTP first and then the
// job queue, and waits for the listener goroutine. The ledger stays
// open for its owner to close.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.client.CloseIdleConnections()
	errs := []error{d.hs.Shutdown(ctx), d.srv.Shutdown(ctx)}
	if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// post sends one POST /v1/run and returns the X-Request-Hash header
// and the body of a 200 answer.
func (d *daemon) post(body []byte) (string, []byte, error) {
	resp, err := d.client.Post(d.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return "", nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return "", nil, fmt.Errorf("POST /v1/run: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	return resp.Header.Get("X-Request-Hash"), data, nil
}

// instance is one in-process cliqued: a daemon serving a ledger that
// lives in a scratch directory.
type instance struct {
	dir string
	led *ledger.Ledger
	d   *daemon
}

func newInstance(e *env, name string) (*instance, error) {
	dir, err := os.MkdirTemp(e.tmp, name+"-")
	if err != nil {
		return nil, err
	}
	in := &instance{dir: dir}
	if in.led, _, err = ledger.Open(in.path()); err != nil {
		in.close()
		return nil, err
	}
	if in.d, err = startDaemon(in.led, e.procs); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

func (in *instance) path() string { return filepath.Join(in.dir, "ledger") }

// reopen drains the daemon and closes the ledger, then serves the
// reopened ledger from a new daemon with an empty memory cache. It
// returns how long ledger.Open took.
func (in *instance) reopen(e *env) (time.Duration, error) {
	err := in.d.stop()
	in.d = nil
	if cerr := in.led.Close(); err == nil {
		err = cerr
	}
	in.led = nil
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	led, _, err := ledger.Open(in.path())
	open := time.Since(t0)
	if err != nil {
		return 0, err
	}
	in.led = led
	in.d, err = startDaemon(led, e.procs)
	return open, err
}

// close drains the daemon, closes the ledger and removes the directory.
func (in *instance) close() {
	if in == nil {
		return
	}
	if in.d != nil {
		if err := in.d.stop(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: stopping the server: %v\n", err)
		}
	}
	if in.led != nil {
		in.led.Close()
	}
	os.RemoveAll(in.dir)
}

// serveLoad is the timed phase both serve workloads share: serialLoop
// over requests drawn one at a time by next, in blocks of `block`, for
// --seconds and at least minOps requests. wall_s is the median block
// wall. The server's counters are read before and after. Every answer's
// X-Request-Hash is checked on arrival, and check, when set, sees every
// body; only the first `keep` requests and bodies are kept, so the
// client's heap, which the server's collector scans too, does not grow
// with the request count.
type serveLoad struct {
	// next draws the next request from the seed's stream.
	next                func() (*adhoc, error)
	block, minOps, keep int
	check               func(q *adhoc, data []byte)
	reqs                []*adhoc // the first keep requests sent, in order
	data                [][]byte // their bodies
	badHash             int      // answers whose hash header is not the request's hash
	firstBad            string
	before, after       svcMetrics
}

func (l *serveLoad) run(e *env, d *daemon, sp *spanLog) (phaseOut, error) {
	l.reqs, l.data, l.badHash, l.firstBad = nil, nil, 0, ""
	var err error
	if l.before, err = d.metrics(); err != nil {
		return phaseOut{}, err
	}
	lat, walls, failed, firstErr := serialLoop(e.seconds, l.block, l.minOps, func(i int) (time.Duration, error) {
		q, err := l.next()
		if err != nil {
			return 0, err
		}
		hash, data, took, err := d.exchange(q, 0, sp)
		if err != nil {
			return took, err
		}
		if hash != q.hash {
			if l.badHash == 0 {
				l.firstBad = fmt.Sprintf("request %d: header %q, client hash %q", i, hash, q.hash)
			}
			l.badHash++
		}
		if l.check != nil {
			l.check(q, data)
		}
		if len(l.reqs) < l.keep {
			l.reqs, l.data = append(l.reqs, q), append(l.data, data)
		}
		return took, nil
	})
	if l.after, err = d.metrics(); err != nil {
		return phaseOut{}, err
	}
	out := phaseOut{wall: time.Duration(median(walls) * float64(time.Second)), units: len(walls),
		latency: lat, timeOrdered: true, attempted: len(lat), failed: failed}
	if failed > 0 {
		e.logf("%d requests failed, first: %v", failed, firstErr)
	}
	e.logf("%d requests in %d blocks of %d", len(lat), len(walls), l.block)
	return out, nil
}

// verify counts the answers whose hash header was not the request's
// own hash as failed requests.
func (l *serveLoad) verify(o *outcome) {
	o.failed += l.badHash
	o.check("hash_header_equals_request_hash", l.badHash == 0, "%d answers, first: %s", l.badHash, l.firstBad)
}

// svcMetrics is the part of the server's /metrics the benchmark reads.
type svcMetrics struct {
	CacheHits   int64              `json:"cache_hits"`
	CacheMisses int64              `json:"cache_misses"`
	LedgerHits  int64              `json:"ledger_hits"`
	JobsDone    int64              `json:"jobs_done"`
	QueueWait   map[string]histSum `json:"queue_wait_ns"`
	RunWall     map[string]histSum `json:"run_wall_ns"`
}

type histSum struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
}

func (d *daemon) metrics() (svcMetrics, error) {
	var m svcMetrics
	if err := json.Unmarshal([]byte(d.srv.Vars().String()), &m); err != nil {
		return m, fmt.Errorf("reading the server metrics: %w", err)
	}
	return m, nil
}

// histMeanMS is Δsum/Δcount over every label of a latency histogram
// family, in ms.
func histMeanMS(before, after map[string]histSum) float64 {
	var count, sum int64
	for label, a := range after {
		count += a.Count - before[label].Count
		sum += a.Sum - before[label].Sum
	}
	if count == 0 {
		return 0
	}
	return float64(sum) / float64(count) / 1e6
}

// adhoc is one POST /v1/run request and the hash the server must
// answer it under.
type adhoc struct {
	alg  string
	n    int
	seed uint64
	body []byte
	hash string
}

type runBody struct {
	Algorithm string `json:"algorithm"`
	N         int    `json:"n"`
	Seed      uint64 `json:"seed"`
}

func newAdhoc(alg string, n int, seed uint64) (*adhoc, error) {
	body, err := json.Marshal(runBody{alg, n, seed})
	if err != nil {
		return nil, err
	}
	hash, err := requestHash(body)
	return &adhoc{alg: alg, n: n, seed: seed, body: body, hash: hash}, err
}

// requestHash decodes a /v1/run body, fills in what the server fills
// in before hashing (the catalogue's word budget and cliqued's default
// backend), and returns the canonical request hash.
func requestHash(body []byte) (string, error) {
	var b runBody
	if err := json.Unmarshal(body, &b); err != nil {
		return "", err
	}
	alg, ok := workload.Get(b.Algorithm)
	if !ok {
		return "", fmt.Errorf("unknown algorithm %q", b.Algorithm)
	}
	req, err := exp.Request{Kind: exp.KindAdhoc, Algorithm: b.Algorithm, N: b.N,
		WordsPerPair: alg.WPP, Seed: b.Seed, Backend: "lockstep"}.Canonical()
	if err != nil {
		return "", err
	}
	return req.Hash(), nil
}

// exchange sends q and returns the answer's X-Request-Hash header, its
// body and the request's latency: from just before the request is
// written to its last body byte.
func (d *daemon) exchange(q *adhoc, lane int, sp *spanLog) (string, []byte, time.Duration, error) {
	s := sp.begin("POST /v1/run", q.hash, -1, lane)
	t0 := time.Now()
	hash, data, err := d.post(q.body)
	took := time.Since(t0)
	sp.end(s)
	return hash, data, took, err
}
