package engine

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Mailbox pooling: the lockstep engine's dominant allocation is its
// double-buffered mailbox storage (two n*n*wpp word arenas plus length
// tables, or the sliceBox cell tables). A long-running process such as
// the cliqued daemon executes many runs with a handful of recurring
// (n, wpp) shapes, so retiring boxes to a per-shape pool instead of the
// garbage collector removes the largest per-run allocation entirely.
//
// Reuse is sound because the node-side API already declares every
// engine-owned slice (Recv, SendBuf) invalid after the run: transcripts
// are deep-copied at record time and Stats are plain values, so nothing
// a well-behaved caller retains aliases pooled memory.

// boxKey identifies one reusable mailbox shape. n and wpp fix every
// buffer size; the two storage layouts are pooled separately because a
// box must be reused as the type it was built as.
type boxKey struct {
	n, wpp int
	arena  bool
}

// shapeCounter is one shape's (or size class's) hit/miss pair.
type shapeCounter struct {
	hits   atomic.Int64
	misses atomic.Int64
}

var (
	boxPools    sync.Map // boxKey -> *sync.Pool
	boxCounters sync.Map // boxKey -> *shapeCounter
)

// PoolStats reports how many lockstep runs reused a pooled mailbox and
// how many had to allocate one, summed over every shape. The split is a
// cheap health signal for long-running services: a hot serving loop
// should converge to hits.
func PoolStats() (hits, misses int64) {
	boxCounters.Range(func(_, v any) bool {
		c := v.(*shapeCounter)
		hits += c.hits.Load()
		misses += c.misses.Load()
		return true
	})
	return hits, misses
}

// PoolShapeStat is one mailbox shape's pool scorecard: how often runs
// of exactly this (n, wpp, layout) reused pooled storage. Per-shape
// hit rates localise pool churn that the aggregate hides — one
// odd-shaped workload missing on every run is invisible next to a hot
// steady shape.
type PoolShapeStat struct {
	N            int
	WordsPerPair int
	Arena        bool // dense-arena layout (sliceBox otherwise)
	Hits         int64
	Misses       int64
}

// PoolShapeStats reports the mailbox pool's per-shape hit/miss split,
// sorted by (n, wpp, layout) for stable output.
func PoolShapeStats() []PoolShapeStat {
	var out []PoolShapeStat
	boxCounters.Range(func(k, v any) bool {
		key, c := k.(boxKey), v.(*shapeCounter)
		out = append(out, PoolShapeStat{
			N: key.n, WordsPerPair: key.wpp, Arena: key.arena,
			Hits: c.hits.Load(), Misses: c.misses.Load(),
		})
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.N != b.N {
			return a.N < b.N
		}
		if a.WordsPerPair != b.WordsPerPair {
			return a.WordsPerPair < b.WordsPerPair
		}
		return !a.Arena && b.Arena
	})
	return out
}

func boxPoolFor(key boxKey) *sync.Pool {
	if p, ok := boxPools.Load(key); ok {
		return p.(*sync.Pool)
	}
	p, _ := boxPools.LoadOrStore(key, &sync.Pool{})
	return p.(*sync.Pool)
}

func boxCounterFor(key boxKey) *shapeCounter {
	if c, ok := boxCounters.Load(key); ok {
		return c.(*shapeCounter)
	}
	c, _ := boxCounters.LoadOrStore(key, &shapeCounter{})
	return c.(*shapeCounter)
}

// getBox returns a mailbox for the given shape, reusing a pooled one
// when available. The returned box is always fully reset. The int64
// product cannot overflow: Config.Validate caps n and wpp at
// MaxN/MaxWordsPerPair (2^32 * 2^24 < 2^63).
func getBox(n, wpp int) mailbox {
	arena := int64(n)*int64(n)*int64(wpp) <= arenaThresholdWords
	key := boxKey{n: n, wpp: wpp, arena: arena}
	if b, _ := boxPoolFor(key).Get().(mailbox); b != nil {
		boxCounterFor(key).hits.Add(1)
		b.reset()
		return b
	}
	boxCounterFor(key).misses.Add(1)
	if arena {
		return newArenaBox(n, wpp)
	}
	return newSliceBox(n, wpp)
}

// putBox retires a run's mailbox to the pool for the next run of the
// same shape.
func putBox(b mailbox) {
	switch x := b.(type) {
	case *arenaBox:
		boxPoolFor(boxKey{n: x.n, wpp: x.wpp, arena: true}).Put(b)
	case *sliceBox:
		boxPoolFor(boxKey{n: x.n, wpp: x.wpp, arena: false}).Put(b)
	}
}

// Word-scratch pooling: the bit-packed data plane (package bitvec and
// the packed collectives built on it) works over dense []uint64
// buffers — broadcast tables, packed matrix blocks, transpose scratch —
// whose sizes recur run to run exactly like mailbox shapes do. They are
// pooled here, beside the mailboxes, because the reuse discipline is
// the same: a buffer is only retired once the run that used it can no
// longer alias it, and every acquisition returns fully zeroed storage
// so no state leaks between pooled runs.

// scratchClasses covers buffers from 1 word up to 2^30 words (8 GiB);
// anything larger is allocated fresh rather than pooled.
const scratchClasses = 31

// scratchCounters has one hit/miss pair per pooled size class plus a
// final oversize bucket (index scratchClasses) for requests too large
// to pool, which always miss.
var (
	scratchPools    [scratchClasses]sync.Pool
	scratchCounters [scratchClasses + 1]shapeCounter
)

// scratchClass returns the size-class index of a buffer of k words: the
// smallest c with 1<<c >= k. Buffers are stored at their full class
// capacity so a pooled buffer always satisfies any request of its class.
func scratchClass(k int) int {
	if k <= 1 {
		return 0
	}
	return bits.Len(uint(k - 1))
}

// GetScratch returns a zeroed word buffer of length k, reusing pooled
// storage when available. Callers return it with PutScratch when done;
// not returning it is safe (the GC reclaims it) but forfeits reuse.
func GetScratch(k int) []uint64 {
	if k <= 0 {
		return nil
	}
	c := scratchClass(k)
	if c >= scratchClasses {
		scratchCounters[scratchClasses].misses.Add(1)
		return make([]uint64, k)
	}
	if buf, _ := scratchPools[c].Get().([]uint64); buf != nil {
		scratchCounters[c].hits.Add(1)
		buf = buf[:k]
		clear(buf)
		return buf
	}
	scratchCounters[c].misses.Add(1)
	return make([]uint64, k, 1<<c)
}

// PutScratch retires a buffer obtained from GetScratch. The buffer must
// not be used after the call.
func PutScratch(buf []uint64) {
	if buf == nil {
		return
	}
	c := scratchClass(cap(buf))
	// Only buffers at exactly class capacity are pooled, so a pooled
	// buffer can always be resliced to any length of its class.
	if c >= scratchClasses || cap(buf) != 1<<c {
		return
	}
	scratchPools[c].Put(buf[:cap(buf)])
}

// ScratchStats reports how many scratch acquisitions reused a pooled
// buffer and how many allocated, summed over every size class. Like
// PoolStats, a hot serving loop should converge to hits.
func ScratchStats() (hits, misses int64) {
	for i := range scratchCounters {
		hits += scratchCounters[i].hits.Load()
		misses += scratchCounters[i].misses.Load()
	}
	return hits, misses
}

// ScratchClassStat is one scratch size class's pool scorecard. Words is
// the class capacity (1<<Class); the oversize bucket — requests beyond
// the largest pooled class, which always allocate — reports Class ==
// scratchClasses with Words == 0.
type ScratchClassStat struct {
	Class  int
	Words  int64 // class capacity in words; 0 for the oversize bucket
	Hits   int64
	Misses int64
}

// ScratchClassStats reports the word-scratch pool's per-class hit/miss
// split, ascending by class, omitting classes with no traffic.
func ScratchClassStats() []ScratchClassStat {
	var out []ScratchClassStat
	for c := range scratchCounters {
		hits, misses := scratchCounters[c].hits.Load(), scratchCounters[c].misses.Load()
		if hits == 0 && misses == 0 {
			continue
		}
		words := int64(0)
		if c < scratchClasses {
			words = int64(1) << c
		}
		out = append(out, ScratchClassStat{Class: c, Words: words, Hits: hits, Misses: misses})
	}
	return out
}
