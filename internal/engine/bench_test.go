package engine

import (
	"fmt"
	"testing"
)

// BenchmarkBackendExchange is the acceptance microbenchmark for the
// lockstep engine: every node broadcasts a word and reads a rotating
// window of 8 peers each round — the canonical gossip round shape of the
// algorithm suite (leader reads, neighbor probes), with the network
// itself at the densest traffic the model allows. Run for a few hundred
// rounds, the horizon of an APSP-class algorithm, so the steady-state
// exchange path dominates setup. Compare goroutine vs lockstep at the
// same n; the reported rounds/sec is the engine's simulated-round
// throughput. The lockstep engine delivers lazily (a message costs read
// work only if its receiver looks at it), which is where most of its
// headroom over the transpose-everything goroutine engine comes from.
func BenchmarkBackendExchange(b *testing.B) {
	benchExchange(b, 8)
}

// BenchmarkBackendExchangeFullRead is the lockstep engine's worst case:
// every node reads every peer's message every round, so lazy delivery
// buys nothing and the gap narrows to allocation and scheduling wins.
func BenchmarkBackendExchangeFullRead(b *testing.B) {
	benchExchange(b, -1)
}

// benchExchange broadcasts all-to-all and reads `reads` peers per node
// per round (-1 = all peers).
func benchExchange(b *testing.B, reads int) {
	const roundsPerRun = 256
	for _, name := range Names() {
		be, err := New(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, n := range []int{64, 256} {
			b.Run(fmt.Sprintf("%s/n=%d", name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					var sink uint64
					res, err := be.Run(Config{N: n, WordsPerPair: 1}, func(id int, rt NodeRuntime) {
						word := make([]uint64, 1)
						var sum uint64
						for r := 0; r < roundsPerRun; r++ {
							word[0] = uint64(id + r)
							rt.Broadcast(id, r, word)
							rt.Barrier(id)
							if reads < 0 {
								for p := 0; p < n; p++ {
									if p != id {
										sum += rt.Recv(id, p)[0]
									}
								}
							} else {
								for j := 1; j <= reads; j++ {
									p := (id + r + j) % n
									if p != id {
										sum += rt.Recv(id, p)[0]
									}
								}
							}
						}
						if id == 0 {
							sink = sum
						}
					})
					_ = sink
					if err != nil {
						b.Fatal(err)
					}
					if res.Stats.Rounds != roundsPerRun {
						b.Fatalf("rounds = %d", res.Stats.Rounds)
					}
				}
				b.ReportMetric(float64(roundsPerRun)*float64(b.N)/b.Elapsed().Seconds(), "rounds/sec")
			})
		}
	}
}

// BenchmarkBackendTranscript measures transcript-recording runs: the
// full-traffic exchange with RecordTranscript on, where recordRound's
// copy strategy (one shared copy per delivered pair, nil rows stay nil)
// dominates the per-round overhead.
func BenchmarkBackendTranscript(b *testing.B) {
	const roundsPerRun = 32
	for _, name := range Names() {
		be, err := New(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, n := range []int{64} {
			b.Run(fmt.Sprintf("%s/n=%d", name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := be.Run(Config{N: n, WordsPerPair: 1, RecordTranscript: true},
						func(id int, rt NodeRuntime) {
							word := make([]uint64, 1)
							for r := 0; r < roundsPerRun; r++ {
								// Half the nodes stay silent so the empty-row
								// fast path is exercised alongside the copies.
								if id%2 == 0 {
									word[0] = uint64(id + r)
									rt.Broadcast(id, r, word)
								}
								rt.Barrier(id)
							}
						})
					if err != nil {
						b.Fatal(err)
					}
					if res.Stats.Rounds != roundsPerRun {
						b.Fatalf("rounds = %d", res.Stats.Rounds)
					}
				}
				b.ReportMetric(float64(roundsPerRun)*float64(b.N)/b.Elapsed().Seconds(), "rounds/sec")
			})
		}
	}
}

// BenchmarkBackendBarrier isolates the scheduling cost: nodes tick with
// no traffic at all, so the barrier/resume machinery is everything.
func BenchmarkBackendBarrier(b *testing.B) {
	const roundsPerRun = 64
	for _, name := range Names() {
		be, _ := New(name)
		for _, n := range []int{64, 256} {
			b.Run(fmt.Sprintf("%s/n=%d", name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					_, err := be.Run(Config{N: n}, func(id int, rt NodeRuntime) {
						for r := 0; r < roundsPerRun; r++ {
							rt.Barrier(id)
						}
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(roundsPerRun)*float64(b.N)/b.Elapsed().Seconds(), "rounds/sec")
			})
		}
	}
}

// BenchmarkRunBatch measures the cross-run batched scheduler against a
// serial loop over the same seed sweep. batched/serial is the
// small-message shape batching targets (per-round dispatch dominates
// an n=8 exchange, eight 256-round runs); the batched/serial ratio is
// the live form of the committed batched probe's speedup figure
// (probes.batched in BENCH_baseline.json). skewed-batched/skewed-serial
// is a Figure 1 batch: n=64, one run of 8 rounds beside one of 256,
// each node doing some local compute every round, so the batch is a
// single live run for most of its rounds and only a node-sharded
// scheduler keeps every worker busy. rounds/sec is aggregate simulated
// rounds across the whole sweep.
func BenchmarkRunBatch(b *testing.B) {
	be, err := New("lockstep")
	if err != nil {
		b.Fatal(err)
	}
	for _, shape := range []struct {
		prefix string
		n      int
		rounds []int // per run of the sweep
		work   int   // local multiply-adds per node-round
	}{
		{"", 8, []int{256, 256, 256, 256, 256, 256, 256, 256}, 0},
		{"skewed-", 64, []int{8, 256}, 2048},
	} {
		total := 0
		for _, r := range shape.rounds {
			total += r
		}
		cfg := Config{N: shape.n, WordsPerPair: 1}
		body := func(run, id int, rt NodeRuntime) {
			x := uint64(id)
			word := make([]uint64, 1)
			for r := 0; r < shape.rounds[run]; r++ {
				for k := 0; k < shape.work; k++ {
					x = x*6364136223846793005 + 1442695040888963407
				}
				word[0] = x + uint64(r)
				rt.Broadcast(id, r, word)
				rt.Barrier(id)
			}
		}
		check := func(b *testing.B, run int, res *Result, err error) {
			b.Helper()
			if err != nil {
				b.Fatal(err)
			}
			if res.Stats.Rounds != shape.rounds[run] {
				b.Fatalf("run %d: rounds = %d", run, res.Stats.Rounds)
			}
		}
		b.Run(shape.prefix+"batched", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				results, errs := RunBatch(be, cfg, len(shape.rounds), body)
				for r := range results {
					check(b, r, results[r], errs[r])
				}
			}
			b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "rounds/sec")
		})
		b.Run(shape.prefix+"serial", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for r := range shape.rounds {
					res, err := be.Run(cfg, func(id int, rt NodeRuntime) { body(r, id, rt) })
					check(b, r, res, err)
				}
			}
			b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "rounds/sec")
		})
	}
}

// BenchmarkBroadcast is the dense broadcast round at sweep-large scale
// (n = 1024): each round every node broadcasts wpp words from a reused
// buffer, ticks, and reads all n−1 Recvs — the per-peer receive the
// comm broadcast collectives fall back to when a round has no shared
// table (comm's BenchmarkBroadcastWord times the table path). wpp = 1
// runs on the dense arena,
// wpp = 32 (n²·wpp past arenaThresholdWords) on the sliceBox fallback,
// so the pair covers both layouts' broadcast plane.
func BenchmarkBroadcast(b *testing.B) {
	const n, roundsPerRun = 1024, 8
	for _, c := range []struct {
		layout string
		wpp    int
	}{{"arena", 1}, {"slice", 32}} {
		b.Run(fmt.Sprintf("%s/n=%d/wpp=%d", c.layout, n, c.wpp), func(b *testing.B) {
			if arena := n*n*c.wpp <= arenaThresholdWords; arena != (c.layout == "arena") {
				b.Fatalf("wpp=%d does not select the %s layout", c.wpp, c.layout)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := lockstepBackend{}.Run(Config{N: n, WordsPerPair: c.wpp}, func(id int, rt NodeRuntime) {
					var sum uint64
					buf := make([]uint64, c.wpp)
					for r := 0; r < roundsPerRun; r++ {
						for j := range buf {
							buf[j] = uint64(id + r + j)
						}
						rt.Broadcast(id, r, buf)
						rt.Barrier(id)
						for p := 0; p < n; p++ {
							if p != id {
								sum += rt.Recv(id, p)[c.wpp-1]
							}
						}
					}
					if sum == 0 {
						panic("no words received")
					}
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Stats.Rounds != roundsPerRun {
					b.Fatalf("rounds = %d", res.Stats.Rounds)
				}
			}
			b.ReportMetric(float64(roundsPerRun)*float64(b.N)/b.Elapsed().Seconds(), "rounds/sec")
		})
	}
}
