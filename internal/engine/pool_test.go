package engine

import (
	"testing"
)

// exchangeBody is a tiny broadcast-heavy node program used to exercise
// the mailbox across several rounds.
func exchangeBody(rounds int) func(id int, rt NodeRuntime) {
	return func(id int, rt NodeRuntime) {
		for r := 0; r < rounds; r++ {
			rt.Broadcast(id, r, []uint64{uint64(id<<8 | r)})
			rt.Barrier(id)
		}
	}
}

// TestMailboxPoolReuse pins that back-to-back lockstep runs of the same
// shape reuse the pooled mailbox rather than allocating a fresh one.
func TestMailboxPoolReuse(t *testing.T) {
	be := lockstepBackend{}
	cfg := Config{N: 16, WordsPerPair: 2}

	run := func() *Result {
		res, err := be.Run(cfg, exchangeBody(3))
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return res
	}

	first := run()
	second := run()
	if first.Stats != second.Stats {
		t.Fatalf("pooled rerun changed stats: %+v vs %+v", first.Stats, second.Stats)
	}

	// Reuse is asserted via the hit counter rather than object
	// identity: sync.Pool may legitimately drop a Put item at any GC,
	// so a single-shot identity check would be a latent flake. A GC
	// landing inside the put-then-get window on five consecutive
	// attempts is not a plausible accident.
	reused := false
	for attempt := 0; attempt < 5 && !reused; attempt++ {
		h0, _ := PoolStats()
		putBoxes(getBoxes(1, 16, 2))
		getBoxes(1, 16, 2)
		h1, _ := PoolStats()
		reused = h1 == h0+1
	}
	if !reused {
		t.Fatal("putBoxes/getBoxes never reused the pooled mailbox in 5 attempts")
	}
}

// TestMailboxPoolResetIsolation pins that a reused mailbox leaks
// nothing from the previous run: a quiet round after a noisy run must
// observe an empty inbox, and stats must restart from zero.
func TestMailboxPoolResetIsolation(t *testing.T) {
	be := lockstepBackend{}
	cfg := Config{N: 8, WordsPerPair: 4}

	if _, err := be.Run(cfg, exchangeBody(5)); err != nil {
		t.Fatalf("noisy run: %v", err)
	}

	sawWords := make([]bool, cfg.N) // one slot per node: race-free
	res, err := be.Run(cfg, func(id int, rt NodeRuntime) {
		rt.Barrier(id) // send nothing, then inspect the inbox
		for from := 0; from < cfg.N; from++ {
			if from != id && len(rt.Recv(id, from)) != 0 {
				sawWords[id] = true
			}
		}
	})
	if err != nil {
		t.Fatalf("quiet run: %v", err)
	}
	for id, saw := range sawWords {
		if saw {
			t.Fatalf("reused mailbox delivered stale words to node %d", id)
		}
	}
	if res.Stats.WordsSent != 0 || res.Stats.MaxPairWords != 0 {
		t.Fatalf("reused mailbox leaked accounting: %+v", res.Stats)
	}
}

// TestScratchPoolRoundTrip pins the word-scratch pool: buffers come
// back zeroed and same-class requests reuse pooled storage.
func TestScratchPoolRoundTrip(t *testing.T) {
	buf := GetScratch(100)
	if len(buf) != 100 {
		t.Fatalf("GetScratch(100) has len %d", len(buf))
	}
	for i := range buf {
		buf[i] = ^uint64(0)
	}
	// Like the mailbox reuse test above, assert via the hit counter with
	// retries: a GC landing between Put and Get legitimately empties the
	// sync.Pool, but not on five consecutive attempts.
	reused := false
	var buf2 []uint64
	for attempt := 0; attempt < 5 && !reused; attempt++ {
		PutScratch(buf)
		h0, _ := ScratchStats()
		buf2 = GetScratch(80) // class 128, same as 100
		h1, _ := ScratchStats()
		reused = h1 == h0+1
		if !reused {
			buf = buf2[:cap(buf2)]
			for i := range buf {
				buf[i] = ^uint64(0)
			}
		}
	}
	if !reused {
		t.Errorf("same-class GetScratch never served from pool in 5 attempts")
	}
	for i, w := range buf2 {
		if w != 0 {
			t.Fatalf("pooled scratch word %d not zeroed", i)
		}
	}
	PutScratch(buf2)

	if got := GetScratch(0); got != nil {
		t.Errorf("GetScratch(0) = %v, want nil", got)
	}
	PutScratch(nil) // must be a no-op
}

func TestScratchClassBounds(t *testing.T) {
	cases := []struct{ k, class int }{{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {64, 6}, {65, 7}, {1 << 20, 20}}
	for _, c := range cases {
		if got := scratchClass(c.k); got != c.class {
			t.Errorf("scratchClass(%d) = %d, want %d", c.k, got, c.class)
		}
	}
}

// TestPoolShapeStats pins the per-shape scorecard: traffic on a
// distinctive shape shows up under exactly that (n, wpp) key,
// and the per-shape splits sum to the aggregate PoolStats.
func TestPoolShapeStats(t *testing.T) {
	const n, wpp = 23, 3 // a shape no other test uses
	find := func() (PoolShapeStat, bool) {
		for _, s := range PoolShapeStats() {
			if s.N == n && s.WordsPerPair == wpp {
				return s, true
			}
		}
		return PoolShapeStat{}, false
	}
	before, _ := find()
	putBoxes(getBoxes(1, n, wpp))
	getBoxes(1, n, wpp)
	after, ok := find()
	if !ok {
		t.Fatalf("shape n=%d wpp=%d missing from PoolShapeStats", n, wpp)
	}
	if gotTotal := (after.Hits + after.Misses) - (before.Hits + before.Misses); gotTotal != 2 {
		t.Fatalf("shape traffic delta = %d, want 2 (one miss + one reuse attempt)", gotTotal)
	}

	var hits, misses int64
	for _, s := range PoolShapeStats() {
		hits += s.Hits
		misses += s.Misses
	}
	aggHits, aggMisses := PoolStats()
	if hits != aggHits || misses != aggMisses {
		t.Fatalf("per-shape sums (%d/%d) disagree with PoolStats (%d/%d)",
			hits, misses, aggHits, aggMisses)
	}
}

// TestScratchClassStats pins the per-class scorecard: a request lands
// in the class covering its size, the oversize bucket reports Words ==
// 0, and the per-class splits sum to the aggregate ScratchStats.
func TestScratchClassStats(t *testing.T) {
	const k = 100 // class 7 (128 words)
	class := scratchClass(k)
	find := func(c int) ScratchClassStat {
		for _, s := range ScratchClassStats() {
			if s.Class == c {
				return s
			}
		}
		return ScratchClassStat{Class: c}
	}
	before := find(class)
	PutScratch(GetScratch(k))
	GetScratch(k)
	after := find(class)
	if got := (after.Hits + after.Misses) - (before.Hits + before.Misses); got != 2 {
		t.Fatalf("class %d traffic delta = %d, want 2", class, got)
	}
	if after.Words != 1<<class {
		t.Fatalf("class %d reports %d words, want %d", class, after.Words, 1<<class)
	}

	var hits, misses int64
	for _, s := range ScratchClassStats() {
		hits += s.Hits
		misses += s.Misses
	}
	aggHits, aggMisses := ScratchStats()
	if hits != aggHits || misses != aggMisses {
		t.Fatalf("per-class sums (%d/%d) disagree with ScratchStats (%d/%d)",
			hits, misses, aggHits, aggMisses)
	}
}
