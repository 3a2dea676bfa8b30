package engine

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Mailbox pooling: a lockstep run's mailbox keeps the groups its
// traffic carved (see lockstep.go), and processes such as the cliqued
// daemon run many runs of a few recurring (n, wpp) shapes, so a retired
// box goes to a cache, and the next run of its shape queues into groups
// that already exist. The cache holds idle boxes strongly, one free
// list per shape, up to idleBoxBytes, evicting the least recently
// retired shape first. A sync.Pool would not do: the collector empties
// it every cycle, and with boxes sized by their traffic the heap is
// small and cycles come often, so a registry pass remade a box for most
// runs, and their allocation brought the next cycle sooner still.
//
// Reuse is sound because the node-side API already declares every
// engine-owned slice (Recv, SendBuf) invalid after the run: transcripts
// are deep-copied at record time and Stats are plain values, so nothing
// a well-behaved caller retains aliases pooled memory.

// idleBoxBytes caps the bytes the cache's idle boxes hold. One registry
// pass retires boxes of 32 shapes holding about 80 MB, so a paper
// regeneration reuses every box; a daemon serving a stream of new
// shapes holds no more than this in idle mailboxes.
const idleBoxBytes = 128 << 20

// boxKey identifies one reusable mailbox shape: n and wpp fix the
// tables and bound every group's stride.
type boxKey struct{ n, wpp int }

// shapeCounter is one shape's (or size class's) hit/miss pair.
type shapeCounter struct {
	hits   atomic.Int64
	misses atomic.Int64
}

// boxCache is the idle mailboxes by shape and the bytes they hold (an
// idle box's bytes do not change); used orders shapes by retirement.
type boxCache struct {
	mu     sync.Mutex
	shapes map[boxKey]*idleBoxes
	bytes  int
	clock  int
}

type idleBoxes struct {
	boxes       []*mailbox
	bytes, used int
}

var (
	boxes       = boxCache{shapes: map[boxKey]*idleBoxes{}}
	boxCounters sync.Map // boxKey -> *shapeCounter
)

// PoolStats reports how many lockstep mailboxes were reused from the
// cache and how many had to be allocated, summed over every shape; a
// batch of B runs takes B mailboxes. The split is a cheap health signal
// for long-running services: a hot serving loop should converge to
// hits.
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
// of exactly this (n, wpp) reused cached storage. Per-shape hit rates
// localise pool churn that the aggregate hides — one odd-shaped
// workload missing on every run is invisible next to a hot steady
// shape.
type PoolShapeStat struct {
	N            int
	WordsPerPair int
	Hits         int64
	Misses       int64
}

// PoolShapeStats reports the mailbox pool's per-shape hit/miss split,
// sorted by (n, wpp) for stable output.
func PoolShapeStats() []PoolShapeStat {
	var out []PoolShapeStat
	boxCounters.Range(func(k, v any) bool {
		key, c := k.(boxKey), v.(*shapeCounter)
		out = append(out, PoolShapeStat{
			N: key.n, WordsPerPair: key.wpp,
			Hits: c.hits.Load(), Misses: c.misses.Load(),
		})
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.N != b.N {
			return a.N < b.N
		}
		return a.WordsPerPair < b.WordsPerPair
	})
	return out
}

func boxCounterFor(key boxKey) *shapeCounter {
	if c, ok := boxCounters.Load(key); ok {
		return c.(*shapeCounter)
	}
	c, _ := boxCounters.LoadOrStore(key, &shapeCounter{})
	return c.(*shapeCounter)
}

// getBoxes returns k fully reset mailboxes of one shape, one per run of
// a batch: cached ones first, and the rest built together by newBoxes,
// so the misses of one batch share their tables.
func getBoxes(k, n, wpp int) []*mailbox {
	key := boxKey{n: n, wpp: wpp}
	out := boxes.take(key, k)
	for _, b := range out {
		b.reset()
	}
	c := boxCounterFor(key)
	c.hits.Add(int64(len(out)))
	c.misses.Add(int64(k - len(out)))
	return append(out, newBoxes(k-len(out), n, wpp)...)
}

// putBoxes retires a batch's mailboxes to the cache for the next runs
// of the same shape. It must be called after every run's coroutines
// have unwound: node programs may touch their rows right up to the
// Abort that unwinds them.
func putBoxes(retired []*mailbox) { boxes.put(retired, idleBoxBytes) }

// take removes up to k idle boxes of one shape from the cache.
func (c *boxCache) take(key boxKey, k int) []*mailbox {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*mailbox
	if idle := c.shapes[key]; idle != nil {
		for len(out) < k && len(idle.boxes) > 0 {
			b := idle.boxes[len(idle.boxes)-1]
			size := b.bytes()
			idle.boxes, idle.bytes, c.bytes = idle.boxes[:len(idle.boxes)-1], idle.bytes-size, c.bytes-size
			out = append(out, b)
		}
		if len(idle.boxes) == 0 {
			delete(c.shapes, key)
		}
	}
	return out
}

// put adds retired boxes to the cache, then evicts the least recently
// retired shapes while the cache holds more than limit bytes; a shape
// whose boxes alone exceed it keeps none.
func (c *boxCache) put(retired []*mailbox, limit int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clock++
	for _, b := range retired {
		key := boxKey{n: b.n, wpp: b.wpp}
		idle := c.shapes[key]
		if idle == nil {
			idle = &idleBoxes{}
			c.shapes[key] = idle
		}
		size := b.bytes()
		idle.boxes, idle.bytes, idle.used = append(idle.boxes, b), idle.bytes+size, c.clock
		c.bytes += size
	}
	for c.bytes > limit {
		var lru boxKey
		var oldest *idleBoxes
		for key, idle := range c.shapes {
			if oldest == nil || idle.used < oldest.used {
				lru, oldest = key, idle
			}
		}
		c.bytes -= oldest.bytes
		delete(c.shapes, lru)
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
