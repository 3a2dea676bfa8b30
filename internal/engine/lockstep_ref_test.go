package engine

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// This file keeps the serial lockstep scheduler that preceded "a run is
// a batch of one" — its own worker pool (a goroutine per worker even
// when there is only one), its own settle loop and a pooled per-run
// mailbox — as the reference the batched scheduler is held to. The
// batched ≡ serial tests and FuzzRunMatchesReference compare against
// refRun, so the oracle shares no scheduling code with Run or RunBatch.
// It shares the per-run engine (coroutines, mailbox, exchange), which is
// not what is under test.

// refRun executes one run exactly as the serial scheduler did.
func refRun(cfg Config, body func(id int, rt NodeRuntime)) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	n := cfg.N

	e := newLockstepEngine(cfg, n)
	if e.tr = effectiveTracer(cfg); e.tr != nil {
		e.lastRound = time.Now()
		e.pairsFn = e.visitPairs
	}
	boxes := getBoxes(1, n, cfg.WordsPerPair)
	e.box = boxes[0]
	// Retire the mailbox to the pool once every coroutine has unwound
	// (the stop defer below runs first, LIFO).
	defer putBoxes(boxes)

	e.start(body)
	liveCount := n
	defer e.stopAll()

	// Each worker owns a fixed contiguous shard of nodes for the whole
	// run, so a given node is always resumed by the same worker, in the
	// same within-shard order.
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	starts := make([]chan struct{}, workers)
	for w := 0; w < workers; w++ {
		starts[w] = make(chan struct{}, 1)
		lo, hi := w*n/workers, (w+1)*n/workers
		go func(start <-chan struct{}, lo, hi int) {
			for range start {
				for v := lo; v < hi; v++ {
					if !e.live[v] {
						continue
					}
					if _, ok := e.next[v](); !ok {
						e.live[v] = false
					}
				}
				wg.Done()
			}
		}(starts[w], lo, hi)
	}
	defer func() {
		for _, s := range starts {
			close(s)
		}
	}()

	var err error
	for liveCount > 0 {
		wg.Add(workers)
		for _, s := range starts {
			s <- struct{}{}
		}
		wg.Wait()

		// The run's error is deterministically the lowest-id violator.
		for v := 0; v < n; v++ {
			if e.vio[v] != nil {
				err = e.vio[v]
				break
			}
		}
		if err != nil {
			break
		}
		liveCount = 0
		for v := 0; v < n; v++ {
			if e.live[v] {
				liveCount++
			}
		}
		if liveCount == 0 {
			// A round no node finishes with Tick is not exchanged or
			// counted.
			break
		}
		if err = e.exchange(); err != nil {
			break
		}
	}

	return finish(e.stats, e.transcripts, n), err
}

// refRunBatch is the reference batching: one refRun per entry.
func refRunBatch(cfg Config, batch int, body func(run, id int, rt NodeRuntime)) ([]*Result, []error) {
	results := make([]*Result, batch)
	errs := make([]error, batch)
	for r := 0; r < batch; r++ {
		results[r], errs[r] = refRun(cfg, func(id int, rt NodeRuntime) { body(r, id, rt) })
	}
	return results, errs
}

// fuzzRunProgram is a node program that is a pure function of (seed,
// id) and of the words it receives: every choice comes from a splitmix64
// stream that each round's arrivals are folded into, so a misdelivered
// word or a round settled differently steers every later choice. Per
// round a node may return early, fail with a Violation, panic, overrun
// its budget, broadcast (and sometimes return before the barrier) and
// Send or SendBuf to random peers within the budget.
func fuzzRunProgram(seed int64, n, wpp int) func(id int, rt NodeRuntime) {
	return func(id int, rt NodeRuntime) {
		state := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(id+1)*0xbf58476d1ce4e5b9
		next := func(k int) int {
			state += 0x9e3779b97f4a7c15
			z := state
			z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
			z = (z ^ z>>27) * 0x94d049bb133111eb
			return int((z ^ z>>31) % uint64(k))
		}
		used := make([]int, n)
		var senders []int
		rounds := next(12)
		for r := 0; r < rounds; r++ {
			switch next(24) {
			case 0:
				return
			case 1:
				panic(Violation{Err: fmt.Errorf("fuzz: node %d fails in round %d", id, r)})
			case 2:
				panic(fmt.Sprintf("fuzz: node %d round %d", id, r))
			case 3:
				if n > 1 {
					rt.Send(id, r, (id+1)%n, make([]uint64, wpp+1))
				}
			}
			clear(used)
			if n > 1 && next(3) == 0 {
				k := 1 + next(wpp)
				words := make([]uint64, k)
				for i := range words {
					words[i] = uint64(next(1 << 20))
				}
				rt.Broadcast(id, r, words)
				for p := range used {
					used[p] = k
				}
				if next(8) == 0 {
					// Return with the broadcast queued but no Barrier.
					return
				}
			}
			for s := next(4); s > 0 && n > 1; s-- {
				to := next(n)
				if to == id || used[to] == wpp {
					continue
				}
				k := 1 + next(wpp-used[to])
				used[to] += k
				if next(2) == 0 {
					buf := rt.SendBuf(id, r, to, k)
					for i := range buf {
						buf[i] = uint64(id<<8 | i)
					}
				} else {
					words := make([]uint64, k)
					for i := range words {
						words[i] = uint64(next(1 << 20))
					}
					rt.Send(id, r, to, words)
				}
			}
			rt.Barrier(id)
			senders = rt.Senders(id, senders[:0])
			for _, p := range senders {
				for _, w := range rt.Recv(id, p) {
					state = state*31 + w + uint64(p)
				}
			}
		}
	}
}

// FuzzRunMatchesReference holds the lockstep Run — a batch of one on
// the batched scheduler — to the serial reference scheduler (refRun) on
// random programs: n in 1..24, budgets 1..4, a random MaxRounds, and
// transcripts and the broadcast-only law toggled by flags. Stats,
// transcripts and error text must be equal at GOMAXPROCS 1 and 2.
//
//	go test -run '^$' -fuzz FuzzRunMatchesReference -fuzztime=30s ./internal/engine/
func FuzzRunMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(0), uint8(1))
	f.Add(int64(2), uint8(1), uint8(1), uint8(0), uint8(1))
	f.Add(int64(3), uint8(8), uint8(3), uint8(3), uint8(1))
	f.Add(int64(4), uint8(23), uint8(2), uint8(0), uint8(0))
	f.Add(int64(5), uint8(5), uint8(0), uint8(0), uint8(3))
	f.Add(int64(6), uint8(16), uint8(1), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nb, wb, mb, flags uint8) {
		n, wpp := 1+int(nb)%24, 1+int(wb)%4
		cfg := Config{N: n, WordsPerPair: wpp, MaxRounds: int(mb) % 16,
			RecordTranscript: flags&1 != 0, BroadcastOnly: flags&2 != 0}
		prog := fuzzRunProgram(seed, n, wpp)
		for _, procs := range []int{1, 2} {
			old := runtime.GOMAXPROCS(procs)
			got, gotErr := lockstepBackend{}.Run(cfg, prog)
			want, wantErr := refRun(cfg, prog)
			runtime.GOMAXPROCS(old)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("procs=%d %+v: Run err %v, reference err %v", procs, cfg, gotErr, wantErr)
			}
			if got.Stats != want.Stats {
				t.Fatalf("procs=%d %+v: Run stats %+v, reference %+v", procs, cfg, got.Stats, want.Stats)
			}
			if !reflect.DeepEqual(got.Transcripts, want.Transcripts) {
				t.Fatalf("procs=%d %+v: transcripts differ from the reference", procs, cfg)
			}
		}
	})
}
