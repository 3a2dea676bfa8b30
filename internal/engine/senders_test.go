package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/trace"
)

// sendersShapes are the clique sizes the Senders property runs at: the
// degenerate cliques, and sizes on both sides of the 64-bit tile edge
// of the activity mask's transpose (63, 64, 65) and past two tiles.
var sendersShapes = []int{1, 2, 63, 64, 65, 130}

// hugeWPP is the smallest per-pair budget at which an n-node run's
// n²·wpp words pass 2²⁴, the 128 MiB per direction a dense arena of
// every pair's budget would take; the mailbox must carve only what such
// a run sends.
func hugeWPP(n int) int { return 1<<24/(n*n) + 1 }

// sendersProgram is a pseudo-random node program, a pure function of
// (seed, id, round), that mixes every send path — Send, an empty Send,
// SendBuf of 0 and k words, Broadcast of 0 and k words, silence, and a
// broadcast queued just before the program returns — while staying inside
// the per-pair budget. Broadcasts come first in a round (the lockstep
// mailbox's write-once plane), after unicast sends, and twice or three
// times in one round (the plane spilled into cells). With bcastOnly it
// only broadcasts or stays silent, the broadcast clique's law. After every Barrier (and before
// the first) it checks that Senders(id) is exactly the ascending set
// {p : len(Recv(id, p)) > 0}, reporting mismatches through fail.
func sendersProgram(seed int64, n, wpp int, bcastOnly bool, fail func(format string, args ...any)) func(id int, rt NodeRuntime) {
	return func(id int, rt NodeRuntime) {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(id)))
		rounds := 3 + rng.Intn(3)
		used := make([]int, n)
		var got []int
		check := func(round int) {
			// A non-empty prefix must survive: Senders appends.
			got = rt.Senders(id, append(got[:0], -1))
			want := []int{-1}
			for p := 0; p < n; p++ {
				if p != id && len(rt.Recv(id, p)) > 0 {
					want = append(want, p)
				}
			}
			if !slices.Equal(got, want) {
				fail("node %d after round %d: Senders = %v, want %v", id, round, got[1:], want[1:])
			}
		}
		check(-1)
		for r := 0; r < rounds; r++ {
			clear(used)
			broadcast := func(kb int) {
				words := make([]uint64, kb)
				for i := range words {
					words[i] = rng.Uint64()
				}
				rt.Broadcast(id, r, words)
				for to := range used {
					used[to] += kb
				}
			}
			// Broadcast first, so its words fit every link.
			if kb := rng.Intn(min(wpp, 2) + 1); n > 1 && rng.Intn(3) != 0 {
				broadcast(kb)
			}
			if !bcastOnly && n > 1 {
				for s := rng.Intn(4); s > 0; s-- {
					to := rng.Intn(n - 1)
					if to >= id {
						to++
					}
					room := wpp - used[to]
					k := rng.Intn(min(room, 3) + 1)
					switch rng.Intn(3) {
					case 0:
						words := make([]uint64, k)
						for i := range words {
							words[i] = rng.Uint64()
						}
						rt.Send(id, r, to, words)
					case 1:
						buf := rt.SendBuf(id, r, to, k)
						for i := range buf {
							buf[i] = rng.Uint64()
						}
					default:
						rt.SendBuf(id, r, to, 0)
					}
					used[to] += k
				}
			}
			// Broadcast again after the unicasts, up to twice, in what
			// every link has left.
			for extra := rng.Intn(3); extra > 0 && n > 1; extra-- {
				if room := wpp - slices.Max(used); room > 0 {
					broadcast(rng.Intn(min(room, 2) + 1))
				}
			}
			if r == rounds-1 && n > 1 && rng.Intn(2) == 0 {
				// Broadcast and return: the words belong to the round
				// the remaining nodes exchange.
				if slices.Max(used) < wpp {
					rt.Broadcast(id, r, []uint64{uint64(id)})
				}
				return
			}
			rt.Barrier(id)
			check(r)
		}
	}
}

// sendersFailer collects property failures from node programs, which
// run on engine-owned goroutines.
type sendersFailer struct {
	mu   sync.Mutex
	msgs []string
}

func (f *sendersFailer) fail(format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.msgs) < 5 {
		f.msgs = append(f.msgs, fmt.Sprintf(format, args...))
	}
}

// checkSenders runs the Senders property for one seed and shape on
// every backend, serially and — on the lockstep backend — as a native
// batch, and fails t with the first mismatches. Every lockstep run
// must also deliver, round by round, exactly the goroutine backend's
// words: their transcripts and Stats must be equal.
func checkSenders(t *testing.T, seed int64, n, wpp int, bcastOnly bool) {
	t.Helper()
	cfg := Config{N: n, WordsPerPair: wpp, BroadcastOnly: bcastOnly, RecordTranscript: true}
	f := &sendersFailer{}
	const batch = 3
	want := make([]*Result, batch)
	for r := range want {
		res, err := goroutineBackend{}.Run(cfg, sendersProgram(seed+int64(r), n, wpp, bcastOnly, f.fail))
		if err != nil {
			t.Fatalf("goroutine seed %d n=%d wpp=%d: %v", seed+int64(r), n, wpp, err)
		}
		want[r] = res
	}
	same := func(what string, r int, got *Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s seed %d n=%d wpp=%d: %v", what, seed+int64(r), n, wpp, err)
		}
		if got.Stats != want[r].Stats {
			t.Fatalf("%s seed %d n=%d wpp=%d: stats %+v, goroutine %+v", what, seed+int64(r), n, wpp, got.Stats, want[r].Stats)
		}
		for v, tr := range got.Transcripts {
			if !reflect.DeepEqual(tr, want[r].Transcripts[v]) {
				t.Fatalf("%s seed %d n=%d wpp=%d: node %d's transcript differs from the goroutine backend's",
					what, seed+int64(r), n, wpp, v)
			}
		}
	}
	res, err := lockstepBackend{}.Run(cfg, sendersProgram(seed, n, wpp, bcastOnly, f.fail))
	same("lockstep", 0, res, err)
	results, errs := RunBatch(lockstepBackend{}, cfg, batch, func(run, id int, rt NodeRuntime) {
		sendersProgram(seed+int64(run), n, wpp, bcastOnly, f.fail)(id, rt)
	})
	for r := range results {
		same(fmt.Sprintf("batched run %d", r), r, results[r], errs[r])
	}
	for _, m := range f.msgs {
		t.Errorf("seed %d n=%d wpp=%d broadcastOnly=%v: %s", seed, n, wpp, bcastOnly, m)
	}
}

// TestSendersMatchesRecv pins Senders to its definition after every
// round, and lockstep delivery to the goroutine backend's, serial and
// batched, at small and huge budgets, and in the broadcast-only model.
func TestSendersMatchesRecv(t *testing.T) {
	for _, n := range sendersShapes {
		for _, wpp := range []int{1, 3} {
			for seed := int64(0); seed < 3; seed++ {
				checkSenders(t, seed, n, wpp, false)
			}
			checkSenders(t, 7, n, wpp, true)
		}
		if n >= 63 {
			// A budget no dense arena could hold: groups widen to it
			// only where SendBuf reserves it.
			checkSenders(t, 11, n, hugeWPP(n), false)
		}
	}
}

// FuzzSenders is the coverage-guided form of TestSendersMatchesRecv:
// the fuzzer picks the seed, the shape and the budget. CI runs it for a
// short fixed budget; locally:
//
//	go test -run '^$' -fuzz FuzzSenders -fuzztime=30s ./internal/engine/
func FuzzSenders(f *testing.F) {
	for i := range sendersShapes {
		f.Add(int64(i), uint8(i), uint8(1), false)
	}
	f.Add(int64(5), uint8(4), uint8(0), true)
	f.Fuzz(func(t *testing.T, seed int64, shape, budget uint8, bcastOnly bool) {
		n := sendersShapes[int(shape)%len(sendersShapes)]
		wpp := 1 + int(budget%4)
		if budget >= 128 && n >= 63 {
			wpp = hugeWPP(n)
		}
		checkSenders(t, seed, n, wpp, bcastOnly)
	})
}

// pairsRecorder is a Tracer that logs every round's Pairs walk.
type pairsRecorder struct{ visits [][3]int }

func (p *pairsRecorder) EndRound(e trace.RoundEnd) {
	e.Pairs(func(from, to, words int) {
		p.visits = append(p.visits, [3]int{from, to, words})
	})
}

// TestTracedPairsMatchAcrossBackends checks the lockstep tracer walk —
// which iterates the receiver-major activity mask — visits exactly the
// goroutine backend's dense scan: the same pairs and word counts, in
// (to, from)-ascending order.
func TestTracedPairsMatchAcrossBackends(t *testing.T) {
	for _, n := range []int{2, 65, 130} {
		var ref [][3]int
		for i, name := range Names() {
			be, _ := New(name)
			rec := &pairsRecorder{}
			f := &sendersFailer{}
			cfg := Config{N: n, WordsPerPair: 3, Tracer: rec}
			if _, err := be.Run(cfg, sendersProgram(3, n, 3, false, f.fail)); err != nil {
				t.Fatalf("%s n=%d: %v", name, n, err)
			}
			if len(f.msgs) != 0 {
				t.Fatalf("%s n=%d: %v", name, n, f.msgs)
			}
			if len(rec.visits) == 0 {
				t.Fatalf("%s n=%d: tracer saw no traffic", name, n)
			}
			if i == 0 {
				ref = rec.visits
			} else if !slices.Equal(rec.visits, ref) {
				t.Errorf("n=%d: %s visited %d pairs, %s %d, or in another order",
					n, name, len(rec.visits), Names()[0], len(ref))
			}
		}
	}
}
