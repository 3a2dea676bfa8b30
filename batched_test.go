package repro

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/clique"
	"repro/internal/workload"
)

// This file pins the batched execution plane's tentpole guarantee at
// the top of the stack: driving a seed sweep through one
// clique.RunBatch produces, run for run, exactly the Stats,
// Transcripts, and errors that serial clique.Run calls produce — for
// every algorithm in the workload catalogue, on every backend.

// checkBatchedEquivalence runs the programs once batched and once
// serially on the given backend and compares per-run results
// field for field.
func checkBatchedEquivalence(t *testing.T, cfg clique.Config, programs []clique.NodeFunc, rebuild func(run int) clique.NodeFunc) {
	t.Helper()
	batchedRes, batchedErrs := clique.RunBatch(cfg, programs)
	if len(batchedRes) != len(programs) || len(batchedErrs) != len(programs) {
		t.Fatalf("RunBatch shape: %d results / %d errors for %d programs",
			len(batchedRes), len(batchedErrs), len(programs))
	}
	for r := range programs {
		serialRes, serialErr := clique.Run(cfg, rebuild(r))
		if (batchedErrs[r] == nil) != (serialErr == nil) {
			t.Fatalf("run %d: batched err = %v, serial err = %v", r, batchedErrs[r], serialErr)
		}
		if batchedErrs[r] != nil {
			if batchedErrs[r].Error() != serialErr.Error() {
				t.Fatalf("run %d: batched err %q != serial err %q", r, batchedErrs[r], serialErr)
			}
			continue
		}
		if batchedRes[r].Stats != serialRes.Stats {
			t.Fatalf("run %d: batched stats %+v != serial %+v", r, batchedRes[r].Stats, serialRes.Stats)
		}
		if !reflect.DeepEqual(batchedRes[r].Transcripts, serialRes.Transcripts) {
			t.Fatalf("run %d: batched transcripts diverge from serial", r)
		}
	}
}

// atEachProcs runs body once per worker count — the inline single
// worker, an even and an uneven split of the node ids, and more workers
// than the batch has nodes — as a procs=k subtest with
// runtime.GOMAXPROCS(k) in force, restoring the previous value through
// t.Cleanup. The batched scheduler shards node ids by GOMAXPROCS, so
// each subtest drives a different shard layout.
func atEachProcs(t *testing.T, body func(t *testing.T)) {
	t.Helper()
	for _, k := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("procs=%d", k), func(t *testing.T) {
			old := runtime.GOMAXPROCS(k)
			t.Cleanup(func() { runtime.GOMAXPROCS(old) })
			body(t)
		})
	}
}

// TestBatchedEquivalenceAcrossWorkloads sweeps the whole algorithm
// catalogue on both backends and at several worker counts: three seeds
// per algorithm, batched vs serial, transcripts recorded.
func TestBatchedEquivalenceAcrossWorkloads(t *testing.T) {
	const n, batch = 16, 3
	for _, alg := range workload.All() {
		for _, backend := range clique.Backends() {
			t.Run(alg.Name+"/"+backend, func(t *testing.T) {
				atEachProcs(t, func(t *testing.T) {
					cfg := clique.Config{N: n, WordsPerPair: alg.WPP,
						RecordTranscript: true, Backend: backend}
					programs := make([]clique.NodeFunc, batch)
					for r := range programs {
						programs[r] = alg.Make(n, uint64(r+1))
					}
					checkBatchedEquivalence(t, cfg, programs, func(run int) clique.NodeFunc {
						return alg.Make(n, uint64(run+1))
					})
				})
			})
		}
	}
}

// TestBatchedEquivalenceViolations pins the per-run failure contract at
// the clique layer: a run that violates the model inside a batch fails
// with the exact serial error string while sibling runs complete.
func TestBatchedEquivalenceViolations(t *testing.T) {
	const n, batch = 6, 4
	makeProg := func(run int) clique.NodeFunc {
		return func(nd *clique.Node) {
			nd.Broadcast(uint64(run))
			nd.Tick()
			if run == 2 && nd.ID() == 1 {
				// Over-budget in round 1. A single violator keeps the
				// error deterministic on the goroutine backend too, which
				// reports whichever violating node it detects first.
				nd.Send(0, 1, 2)
			}
			nd.Tick()
		}
	}
	for _, backend := range clique.Backends() {
		t.Run(backend, func(t *testing.T) {
			cfg := clique.Config{N: n, WordsPerPair: 1, RecordTranscript: true, Backend: backend}
			programs := make([]clique.NodeFunc, batch)
			for r := range programs {
				programs[r] = makeProg(r)
			}
			checkBatchedEquivalence(t, cfg, programs, makeProg)
			_, errs := clique.RunBatch(cfg, programs)
			for r, err := range errs {
				if (r == 2) != (err != nil) {
					t.Fatalf("run %d: err = %v; only run 2 should fail", r, err)
				}
			}
		})
	}
}

// TestBatchedEquivalenceFuzz is the always-on slice of the fuzz target:
// a fixed seed sweep that runs under plain `go test`.
func TestBatchedEquivalenceFuzz(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		checkBatchedFuzzSeed(t, seed)
	}
}

// checkBatchedFuzzSeed batches four pseudo-random programs derived from
// the seed and compares each against its serial twin on every backend.
func checkBatchedFuzzSeed(t *testing.T, seed int64) {
	t.Helper()
	n := 3 + int(((seed%5)+5)%5) // 3..7, well-defined for negative seeds
	const wpp, batch = 3, 4
	for _, backend := range clique.Backends() {
		cfg := clique.Config{N: n, WordsPerPair: wpp, RecordTranscript: true, Backend: backend}
		programs := make([]clique.NodeFunc, batch)
		for r := range programs {
			programs[r] = fuzzBackendProgram(seed+int64(r), n, wpp)
		}
		checkBatchedEquivalence(t, cfg, programs, func(run int) clique.NodeFunc {
			return fuzzBackendProgram(seed+int64(run), n, wpp)
		})
	}
}

// FuzzBatchedEquivalence is the coverage-guided form: the fuzzer picks
// arbitrary seeds (and through them n, round counts, and send patterns)
// hunting for any divergence between batched and serial execution.
// CI runs it for a short fixed budget; locally:
//
//	go test -run '^$' -fuzz FuzzBatchedEquivalence -fuzztime=30s .
func FuzzBatchedEquivalence(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkBatchedFuzzSeed(t, seed)
	})
}
