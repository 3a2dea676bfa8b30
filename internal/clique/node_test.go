package clique

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// runBackends runs f on every backend and returns the results of the
// runs that succeeded by backend name; a run error fails the test but
// not the other backends' checks.
func runBackends(t *testing.T, cfg Config, f NodeFunc) map[string]*Result {
	t.Helper()
	out := map[string]*Result{}
	for _, backend := range Backends() {
		cfg.Backend = backend
		res, err := Run(cfg, f)
		if err != nil {
			t.Errorf("%s: %v", backend, err)
			continue
		}
		out[backend] = res
	}
	return out
}

// TestBatchedMatchesVarargs pins the node handle's allocation-free
// paths: a program written with BroadcastBuf/SendBuf/RecvInto produces
// exactly the Stats and transcripts of its Broadcast/Send/Recv twin, on
// every backend.
func TestBatchedMatchesVarargs(t *testing.T) {
	const n, wpp, rounds = 5, 3, 4
	cfg := Config{N: n, WordsPerPair: wpp, RecordTranscript: true}

	classic := runBackends(t, cfg, func(nd *Node) {
		id := nd.ID()
		for r := 0; r < rounds; r++ {
			nd.Broadcast(uint64(id*10 + r))
			nd.Send((id+1)%n, uint64(id), uint64(r))
			nd.Tick()
			for p := 0; p < n; p++ {
				if p != id {
					_ = nd.Recv(p)
				}
			}
		}
	})
	batched := runBackends(t, cfg, func(nd *Node) {
		id := nd.ID()
		var scratch []uint64
		for r := 0; r < rounds; r++ {
			buf := nd.BroadcastBuf(1)
			buf[0] = uint64(id*10 + r)
			sb := nd.SendBuf((id+1)%n, 2)
			sb[0], sb[1] = uint64(id), uint64(r)
			nd.Tick()
			for p := 0; p < n; p++ {
				if p != id {
					scratch = nd.RecvInto(p, scratch[:0])
				}
			}
		}
	})

	ref := classic["goroutine"]
	if ref == nil {
		t.FailNow()
	}
	for name, res := range classic {
		if res.Stats != ref.Stats || !reflect.DeepEqual(res.Transcripts, ref.Transcripts) {
			t.Fatalf("classic %s diverges from goroutine reference", name)
		}
	}
	for name, res := range batched {
		if res.Stats != ref.Stats {
			t.Errorf("batched %s stats = %+v, want %+v", name, res.Stats, ref.Stats)
		}
		if !reflect.DeepEqual(res.Transcripts, ref.Transcripts) {
			t.Errorf("batched %s transcripts diverge from the varargs run", name)
		}
	}
}

// TestBroadcastBufOrdersBeforeLaterSends: words staged by BroadcastBuf
// land on every link before words queued by later Sends of the same
// round, on every backend.
func TestBroadcastBufOrdersBeforeLaterSends(t *testing.T) {
	const n = 3
	for name, res := range runBackends(t, Config{N: n, WordsPerPair: 4, RecordTranscript: true}, func(nd *Node) {
		buf := nd.BroadcastBuf(1)
		buf[0] = uint64(100 + nd.ID())
		nd.Send((nd.ID()+1)%n, uint64(200+nd.ID()))
		nd.Tick()
	}) {
		tr := res.Transcripts[1].Rounds[0]
		if got, want := tr.Recv[0], []uint64{100, 200}; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: node 1 received %v from node 0, want %v (broadcast word first)", name, got, want)
		}
		if got := tr.Recv[2]; !reflect.DeepEqual(got, []uint64{102}) {
			t.Errorf("%s: node 1 received %v from node 2, want [102]", name, got)
		}
	}
}

// TestBroadcastBufFlushOnReturn: a node that fills its broadcast buffer
// and returns without another call still delivers the words in the
// round its peers complete.
func TestBroadcastBufFlushOnReturn(t *testing.T) {
	const n = 4
	for name, res := range runBackends(t, Config{N: n, RecordTranscript: true}, func(nd *Node) {
		if nd.ID() == 0 {
			buf := nd.BroadcastBuf(1)
			buf[0] = 7
			return // no Tick: RunBatch's flush after the program queues it
		}
		nd.Tick()
		if w := nd.Recv(0); len(w) != 1 || w[0] != 7 {
			nd.Fail("saw %v from the returning broadcaster", w)
		}
	}) {
		if res.Stats.WordsSent != n-1 {
			t.Errorf("%s: words = %d, want %d", name, res.Stats.WordsSent, n-1)
		}
	}
}

// TestBroadcastBufBudgetViolations: a staged broadcast that overflows a
// link raises the canonical budget violation when it is flushed, by a
// later send or by the program's return, with the same text on every
// backend.
func TestBroadcastBufBudgetViolations(t *testing.T) {
	const want = "clique: node 0 round 0: bandwidth exceeded sending 3 words to 1 (budget 2 words/pair/round)"
	for _, c := range []struct {
		name string
		f    NodeFunc
	}{
		{"staged-after-send", func(nd *Node) {
			if nd.ID() == 0 {
				nd.Send(1, 1)
				nd.BroadcastBuf(2) // 1 + 2 > budget on the link already used
			}
			nd.Tick()
		}},
		{"flushed-by-send", func(nd *Node) {
			if nd.ID() == 0 {
				copy(nd.BroadcastBuf(2), []uint64{1, 2})
				nd.Send(1, 3)
			}
			nd.Tick()
		}},
		{"flushed-on-return", func(nd *Node) {
			if nd.ID() == 0 {
				nd.Send(1, 1)
				copy(nd.BroadcastBuf(2), []uint64{1, 2})
				return
			}
			nd.Tick()
		}},
	} {
		for _, backend := range Backends() {
			_, err := Run(Config{N: 3, WordsPerPair: 2, Backend: backend}, c.f)
			if err == nil || err.Error() != want {
				t.Errorf("%s on %s: err = %v, want %q", c.name, backend, err, want)
			}
		}
	}
}

// TestBroadcastBufBroadcastOnly: a staged broadcast is uniform by
// construction and satisfies the broadcast-only model; a SendBuf to a
// single link violates it.
func TestBroadcastBufBroadcastOnly(t *testing.T) {
	for _, backend := range Backends() {
		_, err := Run(Config{N: 4, BroadcastOnly: true, Backend: backend}, func(nd *Node) {
			nd.BroadcastBuf(1)[0] = uint64(nd.ID())
			nd.Tick()
		})
		if err != nil {
			t.Errorf("%s: uniform BroadcastBuf flagged in broadcast-only mode: %v", backend, err)
		}
		_, err = Run(Config{N: 4, BroadcastOnly: true, Backend: backend}, func(nd *Node) {
			if nd.ID() == 0 {
				nd.SendBuf(1, 1)[0] = 9
			}
			nd.Tick()
		})
		if err == nil || !strings.Contains(err.Error(), "broadcast-only") {
			t.Errorf("%s: single-link SendBuf not flagged in broadcast-only mode: %v", backend, err)
		}
	}
}

// TestBroadcastBufSingleNode: with n == 1 there are no links; the
// buffer is still writable and the run clean.
func TestBroadcastBufSingleNode(t *testing.T) {
	for name, res := range runBackends(t, Config{N: 1}, func(nd *Node) {
		buf := nd.BroadcastBuf(3)
		for i := range buf {
			buf[i] = uint64(i)
		}
		nd.Tick()
	}) {
		if res.Stats.WordsSent != 0 {
			t.Errorf("%s: single-node broadcast counted %d words", name, res.Stats.WordsSent)
		}
	}
}

// TestRecvIntoAppends: RecvInto appends to the caller's buffer and
// returns memory that survives the next Tick.
func TestRecvIntoAppends(t *testing.T) {
	const n, rounds = 3, 3
	runBackends(t, Config{N: n}, func(nd *Node) {
		id, peer := nd.ID(), (nd.ID()+1)%n
		var acc []uint64
		for r := 0; r < rounds; r++ {
			nd.Broadcast(uint64(id*100 + r))
			nd.Tick()
			acc = nd.RecvInto(peer, acc)
		}
		for r, w := range acc {
			if w != uint64(peer*100+r) {
				nd.Fail("acc[%d] = %d", r, w)
			}
		}
		if len(acc) != rounds {
			nd.Fail("accumulated %d words, want %d", len(acc), rounds)
		}
	})
}

// BenchmarkBackendExchangeBatched is the canonical exchange of package
// engine's BenchmarkBackendExchange written on the node handle's
// allocation-free paths (BroadcastBuf + RecvInto): every node stages
// one word and reads a rotating window of 8 peers per round. Its
// allocs/op is the cost of the staged path itself, which must stay flat
// in n per round.
func BenchmarkBackendExchangeBatched(b *testing.B) {
	const roundsPerRun = 256
	for _, backend := range Backends() {
		for _, n := range []int{64, 256} {
			b.Run(fmt.Sprintf("%s/n=%d", backend, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					var sink uint64
					res, err := Run(Config{N: n, Backend: backend}, func(nd *Node) {
						id := nd.ID()
						var sum uint64
						var scratch []uint64
						for r := 0; r < roundsPerRun; r++ {
							nd.BroadcastBuf(1)[0] = uint64(id + r)
							nd.Tick()
							for j := 1; j <= 8; j++ {
								if p := (id + r + j) % n; p != id {
									scratch = nd.RecvInto(p, scratch[:0])
									sum += scratch[0]
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
