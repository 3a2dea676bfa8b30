package engine

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
)

// oldArenaBytes is what the dense-arena layout allocated for one n-node
// run at budget wpp: two n²·wpp-word arenas, two n² length tables and a
// 3·n·wpp-word broadcast plane, beside the masks, stats and plane cells
// every layout has.
func oldArenaBytes(n, wpp int) int {
	return 8*(2*n*n*wpp+3*n*wpp+3*maskWords(n)) + 4*2*n*n + 16*n + 24*2*n
}

// ring queues one word from every node v to (v + 1) mod n for a round,
// with Send or with SendBuf, and delivers it.
func ring(b *mailbox, round int, sendBuf bool) {
	for v := 0; v < b.n; v++ {
		if sendBuf {
			b.sendBuf(v, round, (v+1)%b.n, 1)[0] = uint64(v)
		} else {
			b.send(v, round, (v+1)%b.n, []uint64{uint64(v)})
		}
	}
	b.exchange()
}

// TestMailboxFollowsTraffic pins what a box holds to what its traffic
// touches: a ring at n = 1024, sent with Send or with SendBuf, carves one
// group and one cell per sender and direction,
// a dense all-to-all holds no more than the dense arena did, and one
// word at a budget of about 2²⁰ costs nothing of the budget.
func TestMailboxFollowsTraffic(t *testing.T) {
	for _, sendBuf := range []bool{false, true} {
		t.Run(fmt.Sprintf("ring/sendBuf=%v", sendBuf), func(t *testing.T) {
			const n, wpp = 1024, 32
			b := newBoxes(1, n, wpp)[0]
			for round := 0; round < 4; round++ {
				ring(b, round, sendBuf)
				for v := 0; v < n; v++ {
					from := (v + n - 1) % n
					if got := b.recv(v, from); len(got) != 1 || got[0] != uint64(from) {
						t.Fatalf("round %d: node %d received %v from %d", round, v, got, from)
					}
				}
			}
			got := b.bytes()
			t.Logf("ring at n=%d wpp=%d holds %d bytes; the dense arena held %d", n, wpp, got, oldArenaBytes(n, wpp))
			if got >= 4<<20 {
				t.Fatalf("ring holds %d bytes, want < 4 MiB", got)
			}
		})
	}
	t.Run("dense", func(t *testing.T) {
		// The all-to-all collectives (comm.AllToAll, AllToAllFixed,
		// AllToAllWord) queue with SendBuf, a full budget to every peer.
		const n, wpp = 64, 8
		b := newBoxes(1, n, wpp)[0]
		for round := 0; round < 3; round++ {
			for from := 0; from < n; from++ {
				for to := 0; to < n; to++ {
					if to != from {
						for i, buf := 0, b.sendBuf(from, round, to, wpp); i < wpp; i++ {
							buf[i] = uint64(from*n + to)
						}
					}
				}
			}
			b.exchange()
			if got := b.recv(5, 9); len(got) != wpp || got[wpp-1] != 9*n+5 {
				t.Fatalf("round %d: recv(5, 9) = %v", round, got)
			}
		}
		got, arena := b.bytes(), oldArenaBytes(n, wpp)
		t.Logf("dense all-to-all at n=%d wpp=%d holds %d bytes; the dense arena held %d", n, wpp, got, arena)
		if got > arena {
			t.Fatalf("dense all-to-all holds %d bytes, more than the dense arena", got)
		}
	})
	t.Run("huge-budget", func(t *testing.T) {
		const n = 4
		wpp := hugeWPP(n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := lockstepBackend{}.Run(Config{N: n, WordsPerPair: wpp}, func(id int, rt NodeRuntime) {
			if id == 0 {
				rt.Send(id, 0, 1, []uint64{7})
			}
			rt.Barrier(id)
		})
		runtime.ReadMemStats(&after)
		if err != nil || res.Stats.WordsSent != 1 {
			t.Fatalf("run: %v, %+v", err, res)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Fatalf("one word at wpp=%d allocated %d bytes, dense arena %d", wpp, got, oldArenaBytes(n, wpp))
		}
		b := newBoxes(1, n, wpp)[0]
		b.send(0, 0, 1, []uint64{7})
		b.exchange()
		if got := b.bytes(); got >= 1<<12 {
			t.Fatalf("one word at wpp=%d holds %d bytes", wpp, got)
		}
	})
}

// TestSendBufAliasedInSlotsAndGrid holds SendBuf to its contract on
// both kinds of cell storage: the slice it returns stays the mailbox's
// until the barrier, whatever the sender queues after it, so words
// written into it late are the words delivered. Cell 1 is in its slot
// before its SendBuf, cell 2 takes one for its SendBuf and is appended
// to after it, and once half the group's cells are in slots the
// SendBufs that fill the rest widen its grid to the budget.
func TestSendBufAliasedInSlotsAndGrid(t *testing.T) {
	const n, wpp = 70, 8
	b := newBoxes(1, n, wpp)[0]
	b.send(0, 0, 1, w(1, 2, 3))
	buf1 := b.sendBuf(0, 0, 1, 2)
	buf2 := b.sendBuf(0, 0, 2, 1)
	b.send(0, 0, 2, w(9))
	for to := 3; to < n; to++ {
		b.sendBuf(0, 0, to, 1)[0] = uint64(to)
	}
	b.send(0, 0, 1, w(4))
	b.send(0, 0, 3, w(10, 11))
	copy(buf1, w(5, 6))
	buf2[0] = 7
	b.exchange()
	for to, want := range map[int][]uint64{1: w(1, 2, 3, 5, 6, 4), 2: w(7, 9), 3: w(3, 10, 11), 63: w(63), 64: w(64), 69: w(69)} {
		if got := b.recv(to, 0); !slices.Equal(got, want) {
			t.Errorf("recv(%d, 0) = %v, want %v", to, got, want)
		}
	}
	if g := b.in[0]; g.stride != wpp || g.over != 1<<32-2 {
		t.Errorf("group 0: stride %d, slot cells %b; want the grid at wpp and cells 1..31 in slots", g.stride, g.over)
	}
}

// TestBoxCacheEvictsLeastRecent pins the cache's bound: retiring past
// the limit drops the least recently retired shapes first, and a shape
// whose boxes alone exceed the limit keeps none.
func TestBoxCacheEvictsLeastRecent(t *testing.T) {
	c := boxCache{shapes: map[boxKey]*idleBoxes{}}
	box := func(n int) *mailbox {
		b := newBoxes(1, n, 2)[0]
		ring(b, 0, false)
		return b
	}
	a, b, d := box(8), box(9), box(10)
	limit := a.bytes() + b.bytes() + d.bytes() - 1
	c.put([]*mailbox{a}, limit)
	c.put([]*mailbox{b}, limit)
	c.put([]*mailbox{d}, limit)
	if got := c.take(boxKey{8, 2}, 1); len(got) != 0 {
		t.Fatalf("least recent shape kept past the limit")
	}
	for _, n := range []int{9, 10} {
		if got := c.take(boxKey{n, 2}, 2); len(got) != 1 {
			t.Fatalf("shape n=%d: took %d boxes, want 1", n, len(got))
		}
	}
	c.put([]*mailbox{box(11)}, 1)
	if len(c.shapes) != 0 || c.bytes != 0 {
		t.Fatalf("over-limit shape kept: %d shapes, %d bytes", len(c.shapes), c.bytes)
	}
}

// BenchmarkSparseSend is the ring of TestMailboxFollowsTraffic as a
// run: every node sends one word to its successor each round at
// n = 1024. B/op and allocs/op are the measure; a box that carved n²
// cells or their tables would show here.
func BenchmarkSparseSend(b *testing.B) {
	const n, roundsPerRun = 1024, 8
	for _, wpp := range []int{8, 32} {
		b.Run(fmt.Sprintf("n=%d/wpp=%d", n, wpp), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := lockstepBackend{}.Run(Config{N: n, WordsPerPair: wpp}, func(id int, rt NodeRuntime) {
					word := []uint64{uint64(id)}
					for r := 0; r < roundsPerRun; r++ {
						rt.Send(id, r, (id+1)%n, word)
						rt.Barrier(id)
						if got := rt.Recv(id, (id+n-1)%n); len(got) != 1 {
							panic(Violation{Err: fmt.Errorf("node %d round %d: received %v", id, r, got)})
						}
					}
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Stats.Rounds != roundsPerRun {
					b.Fatalf("rounds = %d", res.Stats.Rounds)
				}
			}
		})
	}
}
