package engine

import (
	"runtime"
	"sync"
	"time"
)

// Cross-run batched execution: one scheduler drives B independent
// simulations of the same shape (n, wpp) in lockstep, amortising round
// dispatch, barrier bookkeeping, and mailbox storage across the batch.
// Seed sweeps — registry repeat loops, cliquegrid cells, cliqued queue
// jobs — are embarrassingly batchable: the runs share their round
// structure but not their data, so the only coupling is the scheduler.
// It is the lockstep backend's only scheduler: a serial Run is a batch
// of one.
//
// The contract is strict bit-identity: run r of a batch produces exactly
// the (*Result, error) that a Run of the same program would — same
// Stats, same Transcripts, same canonical lowest-id violation. Runs are
// independent: one run's violation or early return halts that run alone
// while the rest of the batch proceeds.

// BatchBackend is the optional Backend extension for native cross-run
// batching. Backends without it are batched by runBatchSerial, one Run
// per entry, which is trivially equivalent.
type BatchBackend interface {
	Backend

	// RunBatch executes `batch` independent runs of cfg's shape. body is
	// invoked once per (run, node id) pair; results and errors are
	// indexed by run, and entry r must be bit-identical to what
	// Run(cfg, func(id, rt) { body(r, id, rt) }) would return.
	RunBatch(cfg Config, batch int, body func(run, id int, rt NodeRuntime)) ([]*Result, []error)
}

// RunBatch executes `batch` independent runs of the same configuration
// on the given backend, natively batched when the backend supports it
// and one Run per entry otherwise. Per-run results are bit-identical to
// Run calls either way.
func RunBatch(be Backend, cfg Config, batch int, body func(run, id int, rt NodeRuntime)) ([]*Result, []error) {
	if batch <= 0 {
		return nil, nil
	}
	if bb, ok := be.(BatchBackend); ok {
		return bb.RunBatch(cfg, batch, body)
	}
	return runBatchSerial(be, cfg, batch, body)
}

// runBatchSerial batches a backend without a native batch mode, and a
// traced lockstep batch, as one Run per entry.
func runBatchSerial(be Backend, cfg Config, batch int, body func(run, id int, rt NodeRuntime)) ([]*Result, []error) {
	results := make([]*Result, batch)
	errs := make([]error, batch)
	for r := 0; r < batch; r++ {
		results[r], errs[r] = be.Run(cfg, func(id int, rt NodeRuntime) { body(r, id, rt) })
	}
	return results, errs
}

// RunBatch is the lockstep engine's scheduler: every run keeps its own
// lockstepEngine (mailbox views, per-node coroutines, stats) while a
// single scheduler and worker pool drive all of them round by round.
// One dispatch resumes the live nodes of every live run, and one settle
// pass per round scans violations, counts survivors, and exchanges each
// live run's mailbox — so the per-round fixed costs that dominate
// small-message workloads are paid once per batch instead of once per
// run. A batch of one is a serial Run, and the only kind that carries a
// tracer.
func (b lockstepBackend) RunBatch(cfg Config, batch int, body func(run, id int, rt NodeRuntime)) ([]*Result, []error) {
	if batch <= 0 {
		return nil, nil
	}
	if err := cfg.Validate(); err != nil {
		errs := make([]error, batch)
		for i := range errs {
			errs[i] = err
		}
		return make([]*Result, batch), errs
	}
	cfg = cfg.withDefaults()
	tr := effectiveTracer(cfg)
	if tr != nil && batch > 1 {
		// A tracer accumulates one run's round reports, so a traced
		// batch runs as batches of one (bit-identical by contract).
		return runBatchSerial(b, cfg, batch, body)
	}
	n := cfg.N

	boxes, releaseBoxes := newBatchBoxes(batch, n, cfg.WordsPerPair)
	// Release the mailbox storage only after every coroutine has unwound
	// (the stop defer below runs first, LIFO): node programs may touch
	// their rows right up to the Abort that unwinds them.
	defer releaseBoxes()

	engines := make([]*lockstepEngine, batch)
	for r := range engines {
		e := newLockstepEngine(cfg, n)
		e.box = boxes[r]
		engines[r] = e
	}
	if tr != nil {
		e := engines[0]
		e.tr, e.lastRound, e.pairsFn = tr, time.Now(), e.visitPairs
	}
	defer func() {
		for _, e := range engines {
			e.stopAll()
		}
	}()
	for r, e := range engines {
		e.start(func(id int, rt NodeRuntime) { body(r, id, rt) })
	}

	// The worker pool shards node ids: worker w owns nodes
	// [w*n/W, (w+1)*n/W) of every run in the batch, with
	// W = min(GOMAXPROCS, n), so every run's nodes spread over all
	// workers and a long run never finishes on one core after its short
	// siblings halt. A given node of a given run is always resumed by
	// the same worker in the same within-shard order (ascending run, then
	// ascending id). All per-slot state (live, vio, mailbox rows) is
	// owned by that slot's coroutine, and halted runs are skipped whole
	// — determinism holds for any worker count.
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	halted := make([]bool, batch)
	// sweep resumes nodes [lo, hi) of every live run — the shard body
	// shared by the single-worker inline path and the worker pool.
	sweep := func(lo, hi int) {
		for r, e := range engines {
			if halted[r] {
				continue
			}
			for v := lo; v < hi; v++ {
				if !e.live[v] {
					continue
				}
				if _, ok := e.next[v](); !ok {
					e.live[v] = false
				}
			}
		}
	}
	var wg sync.WaitGroup
	var starts []chan struct{}
	if workers > 1 {
		starts = make([]chan struct{}, workers)
		for w := 0; w < workers; w++ {
			starts[w] = make(chan struct{}, 1)
			lo, hi := w*n/workers, (w+1)*n/workers
			go func(start <-chan struct{}, lo, hi int) {
				for range start {
					sweep(lo, hi)
					wg.Done()
				}
			}(starts[w], lo, hi)
		}
		defer func() {
			for _, s := range starts {
				close(s)
			}
		}()
	}

	errs := make([]error, batch)
	liveRuns := batch
	for liveRuns > 0 {
		// Resume every live node of every live run one round step: from
		// its last Tick (or its start) to its next Tick (or its return).
		// A single worker runs inline on the scheduler goroutine — no
		// channel round-trip per round, the dominant fixed cost on small
		// machines.
		if workers == 1 {
			sweep(0, n)
		} else {
			wg.Add(workers)
			for _, s := range starts {
				s <- struct{}{}
			}
			wg.Wait()
		}

		// Settle runs in ascending order. Violations surface between
		// rounds (error is the lowest-id violator, the round is not
		// exchanged); a round no node finished with Tick is not
		// exchanged or counted, like the goroutine backend; otherwise the
		// run's mailbox exchanges and its clock advances.
		for r, e := range engines {
			if halted[r] {
				continue
			}
			var err error
			for v := 0; v < n; v++ {
				if e.vio[v] != nil {
					err = e.vio[v]
					break
				}
			}
			if err == nil {
				liveCount := 0
				for v := 0; v < n; v++ {
					if e.live[v] {
						liveCount++
					}
				}
				if liveCount == 0 {
					halted[r] = true
					liveRuns--
					continue
				}
				err = e.exchange()
			}
			if err != nil {
				errs[r] = err
				halted[r] = true
				liveRuns--
			}
		}
	}

	results := make([]*Result, batch)
	for r, e := range engines {
		results[r] = finish(e.stats, e.transcripts, n)
	}
	return results, errs
}

// batchArenaThresholdWords caps the shared batch arena at the same
// 128 MiB of words per direction as a single run's arena; larger batches
// fall back to independently pooled per-run mailboxes.
const batchArenaThresholdWords = arenaThresholdWords

// newBatchBoxes builds one mailbox per run. When a batch of two or more
// fits the dense-arena budget, all runs share two word arenas laid out
// run-major (run r's blocks are contiguous), carved into per-run
// arenaBox views, each with its own slice of one shared activity-mask
// allocation and its own broadcast plane, carved from the same word
// allocation after the arenas — one word allocation (pooled through the
// word-scratch pool) for the entire batch. Otherwise — a batch of one, or one over
// the budget — each run draws an independent mailbox from the
// per-shape pool. release retires the storage; it must be called after
// every run's coroutines have unwound.
func newBatchBoxes(batch, n, wpp int) (boxes []mailbox, release func()) {
	boxes = make([]mailbox, batch)
	perRun := int64(n) * int64(n) * int64(wpp)
	if total := int64(batch) * perRun; batch > 1 && perRun <= arenaThresholdWords && total <= batchArenaThresholdWords {
		n2 := n * n
		chunk := n2 * wpp
		// The broadcast planes (planeWords per run) follow every run's
		// arenas in the same allocation.
		planes, pw := 2*batch*chunk, planeWords(n, wpp)
		words := GetScratch(planes + batch*pw)
		lens := make([]int32, 2*batch*n2)
		sents := make([]senderStats, batch*n)
		masks := make([]uint64, 3*batch*maskWords(n))
		cells := make([][]uint64, 2*batch*n)
		for r := range boxes {
			base := 2 * r * chunk
			lbase := 2 * r * n2
			mbase := 3 * r * maskWords(n)
			pbase := planes + r*pw
			boxes[r] = &arenaBox{
				n: n, wpp: wpp,
				outW: words[base : base+chunk : base+chunk],
				inW:  words[base+chunk : base+2*chunk : base+2*chunk],
				outL: lens[lbase : lbase+n2 : lbase+n2],
				inL:  lens[lbase+n2 : lbase+2*n2 : lbase+2*n2],
				sent: sents[r*n : (r+1)*n : (r+1)*n],
				act:  newActivity(n, masks[mbase:mbase+3*maskWords(n)]),
				pl: newPlane(n, wpp, cells[2*r*n:2*(r+1)*n:2*(r+1)*n],
					words[pbase:pbase+pw:pbase+pw]),
			}
		}
		return boxes, func() { PutScratch(words) }
	}
	for r := range boxes {
		boxes[r] = getBox(n, wpp)
	}
	return boxes, func() {
		for _, b := range boxes {
			putBox(b)
		}
	}
}
