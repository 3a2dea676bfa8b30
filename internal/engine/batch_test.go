package engine

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"unsafe"
)

// batchProgram is a deterministic mixed-traffic program whose behaviour
// depends on both the run index and the node id, so cross-run state
// leakage or mis-indexed mailboxes show up as stat/transcript drift.
func batchProgram(run int, rounds int) func(id int, rt NodeRuntime) {
	return func(id int, rt NodeRuntime) {
		var sum uint64
		for r := 0; r < rounds; r++ {
			rt.Broadcast(id, r, []uint64{uint64(run*1000 + id*10 + r)})
			if id%2 == 0 {
				to := (id + run + 1) % batchTestN
				if to != id {
					rt.Send(id, r, to, []uint64{uint64(run) ^ uint64(r)})
				}
			}
			rt.Barrier(id)
			for p := 0; p < batchTestN; p++ {
				if p == id {
					continue
				}
				for _, w := range rt.Recv(id, p) {
					sum += w
				}
			}
		}
		_ = sum
	}
}

const batchTestN = 9

// runPair executes the same batch natively on the lockstep backend and
// serially on the reference scheduler (refRun), and returns both result
// sets.
func runPair(t *testing.T, cfg Config, batch int, body func(run, id int, rt NodeRuntime)) (native, serial []*Result, nativeErrs, serialErrs []error) {
	t.Helper()
	be, err := New("lockstep")
	if err != nil {
		t.Fatal(err)
	}
	native, nativeErrs = be.(BatchBackend).RunBatch(cfg, batch, body)
	serial, serialErrs = refRunBatch(cfg, batch, body)
	return native, serial, nativeErrs, serialErrs
}

func checkBatchEquivalence(t *testing.T, native, serial []*Result, nativeErrs, serialErrs []error) {
	t.Helper()
	if len(native) != len(serial) || len(nativeErrs) != len(serialErrs) {
		t.Fatalf("batch result shape mismatch: %d/%d results, %d/%d errors",
			len(native), len(serial), len(nativeErrs), len(serialErrs))
	}
	for r := range native {
		if (nativeErrs[r] == nil) != (serialErrs[r] == nil) {
			t.Fatalf("run %d: batched err = %v, serial err = %v", r, nativeErrs[r], serialErrs[r])
		}
		if nativeErrs[r] != nil && nativeErrs[r].Error() != serialErrs[r].Error() {
			t.Fatalf("run %d: batched err %q != serial err %q", r, nativeErrs[r], serialErrs[r])
		}
		if native[r].Stats != serial[r].Stats {
			t.Fatalf("run %d: batched stats %+v != serial stats %+v", r, native[r].Stats, serial[r].Stats)
		}
		if !reflect.DeepEqual(native[r].Transcripts, serial[r].Transcripts) {
			t.Fatalf("run %d: batched transcripts differ from serial", r)
		}
	}
}

// batchProcs are the worker counts the batched ≡ serial tests run at:
// the inline single-worker path, an even and an uneven split of the
// node ids, and more workers than nodes (clamped to n).
var batchProcs = []int{1, 2, 3, 8}

// atEachProcs runs body once per worker count in batchProcs, as a
// procs=k subtest with runtime.GOMAXPROCS(k) in force and the previous
// value restored by t.Cleanup. The scheduler reads GOMAXPROCS when a
// batch starts, so each subtest drives a different shard layout.
func atEachProcs(t *testing.T, body func(t *testing.T)) {
	t.Helper()
	for _, k := range batchProcs {
		t.Run(fmt.Sprintf("procs=%d", k), func(t *testing.T) {
			old := runtime.GOMAXPROCS(k)
			t.Cleanup(func() { runtime.GOMAXPROCS(old) })
			body(t)
		})
	}
}

func TestRunBatchMatchesSerial(t *testing.T) {
	for _, batch := range []int{1, 2, 3, 7, 16} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			atEachProcs(t, func(t *testing.T) {
				cfg := Config{N: batchTestN, WordsPerPair: 4, RecordTranscript: true}
				body := func(run, id int, rt NodeRuntime) { batchProgram(run, 5+run%3)(id, rt) }
				native, serial, nativeErrs, serialErrs := runPair(t, cfg, batch, body)
				checkBatchEquivalence(t, native, serial, nativeErrs, serialErrs)
			})
		})
	}
}

// TestRunBatchUnevenLengths pins the per-run early-exit schedule: runs
// end at different rounds (run r executes r+1 rounds), and a finished
// run must stop being charged rounds while the rest of the batch
// continues. n = 5 is below the largest worker count, so the procs=8
// pass also covers more workers than nodes.
func TestRunBatchUnevenLengths(t *testing.T) {
	atEachProcs(t, func(t *testing.T) {
		cfg := Config{N: 5, WordsPerPair: 2}
		body := func(run, id int, rt NodeRuntime) {
			for r := 0; r <= run; r++ {
				rt.Broadcast(id, r, []uint64{uint64(run)})
				rt.Barrier(id)
			}
		}
		native, serial, nativeErrs, serialErrs := runPair(t, cfg, 6, body)
		checkBatchEquivalence(t, native, serial, nativeErrs, serialErrs)
		for r, res := range native {
			if res.Stats.Rounds != r+1 {
				t.Fatalf("run %d: got %d rounds, want %d", r, res.Stats.Rounds, r+1)
			}
		}
	})
}

// TestRunBatchSkewedLengths is the mixed-length shape of a Figure 1
// batch: run 0 halts after one round while run 1 runs 200, so for all
// but the first round the batch has a single live run, which every
// worker must keep driving across its own node shard.
func TestRunBatchSkewedLengths(t *testing.T) {
	atEachProcs(t, func(t *testing.T) {
		cfg := Config{N: batchTestN, WordsPerPair: 4, RecordTranscript: true}
		rounds := []int{1, 200}
		body := func(run, id int, rt NodeRuntime) { batchProgram(run, rounds[run])(id, rt) }
		native, serial, nativeErrs, serialErrs := runPair(t, cfg, len(rounds), body)
		checkBatchEquivalence(t, native, serial, nativeErrs, serialErrs)
		for r, res := range native {
			if res.Stats.Rounds != rounds[r] {
				t.Fatalf("run %d: got %d rounds, want %d", r, res.Stats.Rounds, rounds[r])
			}
		}
	})
}

// TestRunBatchViolationIsolation checks the violation contract: a run
// that overflows its budget fails with the canonical lowest-id error
// while every other run of the batch completes untouched.
func TestRunBatchViolationIsolation(t *testing.T) {
	atEachProcs(t, func(t *testing.T) {
		const bad = 2
		cfg := Config{N: 6, WordsPerPair: 1}
		body := func(run, id int, rt NodeRuntime) {
			rt.Broadcast(id, 0, []uint64{uint64(id)})
			if run == bad && id >= 3 {
				// Nodes 3, 4, 5 all overflow in round 1; the run's error must
				// name node 3, the lowest violator.
				rt.Barrier(id)
				rt.Broadcast(id, 1, []uint64{1, 2})
			}
			rt.Barrier(id)
		}
		native, serial, nativeErrs, serialErrs := runPair(t, cfg, 5, body)
		checkBatchEquivalence(t, native, serial, nativeErrs, serialErrs)
		for r, err := range nativeErrs {
			if r == bad {
				if err == nil {
					t.Fatalf("run %d: want violation, got nil", r)
				}
				want := "clique: node 3 round 1: bandwidth exceeded sending 2 words to 0 (budget 1 words/pair/round)"
				if err.Error() != want {
					t.Fatalf("run %d: got %q, want %q", r, err, want)
				}
			} else if err != nil {
				t.Fatalf("run %d: unexpected error %v", r, err)
			}
		}
	})
}

// TestRunBatchMaxRounds checks that the round limit applies per run.
func TestRunBatchMaxRounds(t *testing.T) {
	cfg := Config{N: 4, MaxRounds: 3}
	body := func(run, id int, rt NodeRuntime) {
		rounds := 2
		if run == 1 {
			rounds = 10
		}
		for r := 0; r < rounds; r++ {
			rt.Broadcast(id, r, []uint64{1})
			rt.Barrier(id)
		}
	}
	native, serial, nativeErrs, serialErrs := runPair(t, cfg, 3, body)
	checkBatchEquivalence(t, native, serial, nativeErrs, serialErrs)
	if nativeErrs[1] == nil || nativeErrs[0] != nil || nativeErrs[2] != nil {
		t.Fatalf("want only run 1 to hit MaxRounds, got %v", nativeErrs)
	}
}

// TestRunBatchPanicIsolation checks that a node panic fails its own run
// with the canonical error and leaves sibling runs intact.
func TestRunBatchPanicIsolation(t *testing.T) {
	atEachProcs(t, func(t *testing.T) {
		cfg := Config{N: 4, WordsPerPair: 1}
		body := func(run, id int, rt NodeRuntime) {
			rt.Broadcast(id, 0, []uint64{1})
			rt.Barrier(id)
			if run == 0 && id == 2 {
				panic("boom")
			}
			rt.Broadcast(id, 1, []uint64{2})
			rt.Barrier(id)
		}
		native, serial, nativeErrs, serialErrs := runPair(t, cfg, 4, body)
		checkBatchEquivalence(t, native, serial, nativeErrs, serialErrs)
		if nativeErrs[0] == nil || nativeErrs[0].Error() != "clique: node 2 panicked: boom" {
			t.Fatalf("run 0: got %v", nativeErrs[0])
		}
	})
}

// TestRunBatchBroadcastOnly checks the broadcast-clique law is enforced
// per run in batch mode.
func TestRunBatchBroadcastOnly(t *testing.T) {
	cfg := Config{N: 4, WordsPerPair: 2, BroadcastOnly: true}
	body := func(run, id int, rt NodeRuntime) {
		if run == 1 && id == 1 {
			rt.Send(id, 0, 2, []uint64{7})
		} else {
			rt.Broadcast(id, 0, []uint64{uint64(run)})
		}
		rt.Barrier(id)
	}
	native, serial, nativeErrs, serialErrs := runPair(t, cfg, 3, body)
	checkBatchEquivalence(t, native, serial, nativeErrs, serialErrs)
	if nativeErrs[1] == nil {
		t.Fatal("run 1: want broadcast-only violation, got nil")
	}
}

// TestRunBatchInvalidConfig checks that a bad configuration fails every
// run with the same validation error the reference scheduler returns.
func TestRunBatchInvalidConfig(t *testing.T) {
	be, _ := New("lockstep")
	results, errs := RunBatch(be, Config{N: 0}, 3, func(run, id int, rt NodeRuntime) {})
	if len(results) != 3 || len(errs) != 3 {
		t.Fatalf("got %d results / %d errors, want 3 / 3", len(results), len(errs))
	}
	_, wantErr := refRun(Config{N: 0}, func(id int, rt NodeRuntime) {})
	for r := range errs {
		if results[r] != nil {
			t.Fatalf("run %d: non-nil result for invalid config", r)
		}
		if errs[r] == nil || errs[r].Error() != wantErr.Error() {
			t.Fatalf("run %d: got %v, want %v", r, errs[r], wantErr)
		}
	}
}

// TestRunBatchEmptyAndSingle pins the degenerate shapes: zero runs
// return nothing, one run round-trips through the same scheduler.
func TestRunBatchEmptyAndSingle(t *testing.T) {
	be, _ := New("lockstep")
	if res, errs := RunBatch(be, Config{N: 3}, 0, nil); res != nil || errs != nil {
		t.Fatalf("batch=0: got %v, %v, want nil, nil", res, errs)
	}
	res, errs := RunBatch(be, Config{N: 3}, 1, func(run, id int, rt NodeRuntime) {
		rt.Broadcast(id, 0, []uint64{uint64(run)})
		rt.Barrier(id)
	})
	if len(res) != 1 || errs[0] != nil || res[0].Stats.Rounds != 1 {
		t.Fatalf("batch=1: got %+v, %v", res, errs)
	}
}

// TestRunBatchGoroutineFallback checks the one-Run-per-entry batching used
// for backends without native batching.
func TestRunBatchGoroutineFallback(t *testing.T) {
	be, err := New("goroutine")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := be.(BatchBackend); ok {
		t.Fatal("goroutine backend unexpectedly implements BatchBackend; update this test")
	}
	cfg := Config{N: batchTestN, WordsPerPair: 4, RecordTranscript: true}
	body := func(run, id int, rt NodeRuntime) { batchProgram(run, 4)(id, rt) }
	batched, batchedErrs := RunBatch(be, cfg, 3, body)
	serial, serialErrs := runBatchSerial(be, cfg, 3, body)
	checkBatchEquivalence(t, batched, serial, batchedErrs, serialErrs)
}

// TestRunBatchLargeShapeFallsBackToPooledBoxes drives a batch at a
// shape whose dense n²·wpp arena, 2²⁴ words per run, once pushed
// batches onto independently pooled boxes, and checks equivalence at
// it: the one mailbox layout carves only the ring's groups.
func TestRunBatchLargeShapeFallsBackToPooledBoxes(t *testing.T) {
	cfg := Config{N: 64, WordsPerPair: 1 << 12}
	body := func(run, id int, rt NodeRuntime) {
		rt.Send(id, 0, (id+1)%64, []uint64{uint64(run)})
		rt.Barrier(id)
	}
	native, serial, nativeErrs, serialErrs := runPair(t, cfg, 2, body)
	checkBatchEquivalence(t, native, serial, nativeErrs, serialErrs)
}

// TestRunBatchSharesArena checks that the mailboxes a batch builds
// share their fixed storage: on a shape no pooled box has, every run's
// group tables are views of one allocation, run r's starting 2·r·n·w
// entries after run 0's.
func TestRunBatchSharesArena(t *testing.T) {
	const n, wpp = 9, 5 // a shape no other test uses
	const w = (n + 63) / 64
	boxes := getBoxes(4, n, wpp) // not retired, so a rerun misses again
	for r, b := range boxes {
		if len(b.out) != n*w || len(b.in) != n*w {
			t.Fatalf("run %d: group tables of %d and %d entries, want %d", r, len(b.out), len(b.in), n*w)
		}
		want := uintptr(unsafe.Pointer(&boxes[0].out[0])) + uintptr(2*r*n*w)*unsafe.Sizeof(b.out[0])
		if got := uintptr(unsafe.Pointer(&b.out[0])); got != want {
			t.Fatalf("run %d: group table not run-major in the shared allocation", r)
		}
	}
}

// TestRunBatchOfOneTakesPooledBox checks that a batch of one — every
// serial Run — draws its mailbox from the per-shape pool, as every
// batch does.
func TestRunBatchOfOneTakesPooledBox(t *testing.T) {
	h0, m0 := PoolStats()
	boxes := getBoxes(1, 8, 2)
	h1, m1 := PoolStats()
	putBoxes(boxes)
	if got := (h1 + m1) - (h0 + m0); got != 1 || len(boxes) != 1 {
		t.Fatalf("batch of one drew %d pooled mailboxes (%d boxes), want 1", got, len(boxes))
	}
}

var errSentinel = errors.New("sentinel")

// TestRunBatchFailViolation checks Violation panics (Node.Fail-style)
// carry through per run.
func TestRunBatchFailViolation(t *testing.T) {
	cfg := Config{N: 3}
	body := func(run, id int, rt NodeRuntime) {
		if run == 2 && id == 1 {
			panic(Violation{Err: errSentinel})
		}
		rt.Broadcast(id, 0, []uint64{1})
		rt.Barrier(id)
	}
	native, serial, nativeErrs, serialErrs := runPair(t, cfg, 3, body)
	checkBatchEquivalence(t, native, serial, nativeErrs, serialErrs)
	if !errors.Is(nativeErrs[2], errSentinel) {
		t.Fatalf("run 2: got %v, want sentinel", nativeErrs[2])
	}
}
