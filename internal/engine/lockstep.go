package engine

import (
	"fmt"
	"iter"
	"math/bits"
	"slices"
	"sync"
	"time"
	"unsafe"

	"repro/internal/trace"
)

// lockstepBackend is the deterministic, allocation-free execution engine.
//
// Instead of parking n goroutines on a shared condition variable, every
// node program is wrapped in a pull-style coroutine (iter.Pull): calling
// next() resumes the program until its next Tick, where it suspends by
// yielding. A central scheduler then drives rounds in lockstep:
//
//	for each round:
//	    resume every live node once          (sharded over a worker pool)
//	    exchange mailboxes, update stats     (single scheduler goroutine)
//
// Nodes within a round are resumed in increasing id order inside each
// shard, shards are disjoint, and nodes interact only through mailboxes
// that are read and written at well-defined points — so the execution,
// its statistics, and its error (always the lowest-id violation of the
// earliest failing round) are fully deterministic regardless of worker
// count or OS scheduling.
//
// The mailbox is double-buffered and reused across rounds, so the
// steady-state exchange path allocates nothing. Its words live in
// groups: one per (sender, 64-receiver group), the unit one word of the
// activity mask covers, carved on the group's first send and sized by
// the words queued into it (see group), so a run costs the mailbox
// what its traffic touches and never n²·wpp words. The words are never
// transposed: delivery swaps the two group tables and Recv computes the
// sender-major index. Beside the words, every box keeps an activity
// mask, one bit per ordered pair (see mask.go): senders set their own
// sender-major row as they queue, and exchange transposes it, 64x64
// bits at a time, into a receiver-major mask, so Senders lists who
// spoke to a node in O(senders + n/64) and exchange resets only the
// groups of the senders that spoke. A round in which s nodes send
// therefore costs the mailbox O(active pairs + n²/64), not O(n²). A
// broadcast is stored once: when its sender has queued nothing else yet
// in the round, its words go to the sender's cell of a write-once
// broadcast plane (see plane.go) instead of n−1 pair cells, and every
// receiver reads that one cell, so receivers of one broadcast share the
// same read-only slice. Any later send, sendBuf or broadcast from the
// sender in the same round first spills the plane into its n−1 cells,
// so word order, budget checks, violation text, Stats and transcripts
// are the cell path's.
type lockstepBackend struct{}

func (lockstepBackend) Name() string { return "lockstep" }

// mailbox is the storage layer of the lockstep engine. All methods are
// called either from a single node's coroutine (send, broadcast,
// sendBuf, recv, senders, table — each touching only that node's rows,
// including its own row of the activity mask and of the group tables)
// or from the scheduler between rounds (exchange, outCell, reset,
// bytes).
//
// out and in are the queued and the delivered round's group tables,
// sender-major: sender from's group for receivers [64j, 64j+64) is
// out[from*w+j], empty until the sender first queues a word for one of
// them. A box keeps its carved groups across rounds and, cached, across
// runs (see pool.go).
type mailbox struct {
	n, wpp  int
	out, in []group
	st      *store
	sent    []senderStats
	act     activity
	pl      plane
}

// group is the storage of one (sender, 64-receiver group) pair: the
// cells of the group's receivers, receiver 64j+c's holding lens[c]
// queued words. A cell lives in one of two places:
//
//   - the grid, words[c*stride:], where every cell of the group has the
//     same capacity. A SendBuf into a group its sender fills (see
//     dense) widens it to the whole budget up front, and a broadcast
//     spilled into cells to what the row needs, at least doubling:
//     these are the dense patterns, a cell for every receiver, and the
//     grid serves them with no per-cell state.
//   - its own slot (bit c of over says so for the round), when a Send
//     outgrows the grid or a SendBuf lands in a group its sender does
//     not fill: the sparse pattern, a few messages per group, for which
//     a grid would hold 64 cells as long as the longest. A slot holds
//     its cell's words, doubling up to wpp (SendBuf reserves all of
//     wpp), and is kept for the cell's later rounds until the grid
//     reserves the whole budget.
type group struct {
	lens   *[64]int32
	words  []uint64
	stride int
	over   uint64
	slots  *slots
}

// slots is a group's per-cell storage: every cell in has owns one, and
// they are kept in cell order.
type slots struct {
	has   uint64
	cells [][]uint64
}

// slot returns cell c's slot, giving it an empty one if it has none.
func (s *slots) slot(c int) *[]uint64 {
	i := bits.OnesCount64(s.has & (1<<uint(c) - 1))
	if s.has>>uint(c)&1 == 0 {
		s.cells = slices.Insert(s.cells, i, nil)
		s.has |= 1 << uint(c)
	}
	return &s.cells[i]
}

// store hands out the lengths and grid words that a box's groups are
// carved from, in chunks that grow with what has been carved so far, up
// to what the box could hold at most: a fresh box that turns out dense
// makes a handful of allocations, not one per group, and a sparse one
// holds little more than it carved. Carving takes the lock, since the
// senders of a box run on several workers; it happens on a group's
// first use or widening, not per send. Storage once handed out never
// moves.
type store struct {
	mu    sync.Mutex
	words chunks[uint64]
	lens  chunks[int32]
}

// chunks is one kind of storage of a store: the unused tail of its last
// chunk, the total it has allocated, and the most its box could need.
type chunks[T any] struct {
	free      []T
	held, max int
}

// take hands out k elements, zeroed when first taken, allocating a new
// chunk when the last one has too few left; the caller holds the lock.
func (c *chunks[T]) take(k int) []T {
	if len(c.free) < k {
		size := max(k, min(c.held, c.max-c.held))
		c.free = make([]T, size)
		c.held += size
	}
	t := c.free[:k:k]
	c.free = c.free[k:]
	return t
}

// senderStats is the per-sender cumulative accounting, written only by
// the sender's own coroutine and folded by the scheduler at exchange.
type senderStats struct {
	words int64
	max   int32
}

// newBoxes builds k empty mailboxes of one shape that share their
// tables: each of the group tables, the stats, the activity masks and
// the plane cells is one allocation laid out run-major, box r's part
// after box r−1's. Each box carves its groups from a store of its own.
func newBoxes(k, n, wpp int) []*mailbox {
	w, m := (n+63)/64, maskWords(n)
	groups := make([]group, 2*k*n*w)
	sents := make([]senderStats, k*n)
	masks := make([]uint64, 3*k*m)
	cells := make([][]uint64, 2*k*n)
	boxes := make([]*mailbox, k)
	for r := range boxes {
		g := groups[2*r*n*w : 2*(r+1)*n*w : 2*(r+1)*n*w]
		boxes[r] = &mailbox{
			n: n, wpp: wpp,
			out: g[: n*w : n*w],
			in:  g[n*w:],
			st: &store{
				words: chunks[uint64]{max: 2 * n * n * wpp},
				lens:  chunks[int32]{max: 2 * n * w * 64},
			},
			sent: sents[r*n : (r+1)*n : (r+1)*n],
			act:  newActivity(n, masks[3*r*m:3*(r+1)*m:3*(r+1)*m]),
			pl:   newPlane(n, cells[2*r*n:2*(r+1)*n:2*(r+1)*n]),
		}
	}
	return boxes
}

// bytes is the storage the box holds: its tables, stats and masks, the
// chunks its grids are carved from, its slots and its plane, at
// capacity. Scheduler only.
func (b *mailbox) bytes() int {
	const header = int(unsafe.Sizeof([]uint64(nil)))
	total := int(unsafe.Sizeof(group{}))*(len(b.out)+len(b.in)) +
		int(unsafe.Sizeof(senderStats{}))*len(b.sent) +
		8*(len(b.act.out)+len(b.act.in)+len(b.act.rcv)) +
		8*b.st.words.held + 4*b.st.lens.held +
		header*(len(b.pl.out)+len(b.pl.in)) + 8*cap(b.pl.tab)
	for _, cells := range [][][]uint64{b.pl.out, b.pl.in} {
		for _, c := range cells {
			total += 8 * cap(c)
		}
	}
	for _, groups := range [][]group{b.out, b.in} {
		for _, g := range groups {
			if g.slots == nil {
				continue
			}
			total += int(unsafe.Sizeof(slots{})) + header*cap(g.slots.cells)
			for _, c := range g.slots.cells {
				total += 8 * cap(c)
			}
		}
	}
	return total
}

// foldSent sums per-sender accounting into run-cumulative totals.
func foldSent(sent []senderStats) (int64, int) {
	var words int64
	maxPair := int32(0)
	for i := range sent {
		words += sent[i].words
		if sent[i].max > maxPair {
			maxPair = sent[i].max
		}
	}
	return words, int(maxPair)
}

// carve returns from's queued group holding receiver to, giving it its
// lengths on first use.
func (b *mailbox) carve(from, to int) *group {
	g := &b.out[from*b.act.w+to>>6]
	if g.lens == nil {
		b.carveLens(g)
	}
	return g
}

func (b *mailbox) carveLens(g *group) {
	b.st.mu.Lock()
	g.lens = (*[64]int32)(b.st.lens.take(64))
	b.st.mu.Unlock()
}

// grow widens g's grid, the group holding receiver to, so that every
// cell holds need words, need > stride: the stride at least doubles, up
// to wpp, and the queued words of every cell in the grid move with it.
//
//go:noinline
func (b *mailbox) grow(g *group, to, need int) {
	stride, cols := min(b.wpp, max(need, 2*g.stride)), min(64, b.n-to&^63)
	b.st.mu.Lock()
	words := b.st.words.take(cols * stride)
	b.st.mu.Unlock()
	for c, l := range g.lens[:cols] {
		if l != 0 && g.over>>uint(c)&1 == 0 {
			copy(words[c*stride:c*stride+int(l)], g.words[c*g.stride:])
		}
	}
	g.stride, g.words = stride, words
}

// inSlot makes receiver to's cell of g hold need words in its slot,
// with room for at least reserve, moving the cell out of the grid if it
// is there, and returns the slot's words past the cell's queued length.
//
//go:noinline
func (b *mailbox) inSlot(g *group, to, need, reserve int) []uint64 {
	c := to & 63
	l := int(g.lens[c])
	if g.slots == nil {
		g.slots = new(slots)
	}
	s := g.slots.slot(c)
	if g.over>>uint(c)&1 == 0 {
		*s = append((*s)[:0], g.words[c*g.stride:c*g.stride+l]...)
		g.over |= 1 << uint(c)
	}
	if reserve > cap(*s) {
		*s = append(make([]uint64, 0, max(reserve, min(b.wpp, 2*cap(*s)))), (*s)[:l]...)
	}
	*s = (*s)[:need]
	return (*s)[l:need:need]
}

// send queues words on the (from, to) link, panicking with the
// canonical budget Violation if the cell would overflow. A non-empty
// send sets the pair's bit in the activity mask. Like every queueing
// method, it first spills a plane broadcast of from queued earlier in
// the round into from's cells.
func (b *mailbox) send(from, round, to int, words []uint64) {
	b.spill(from)
	k := len(words)
	if k == 0 {
		return
	}
	g := &b.out[from*b.act.w+to>>6]
	if g.lens == nil {
		b.carveLens(g)
	}
	c := to & 63
	l := int(g.lens[c])
	switch {
	case l+k <= g.stride && g.over>>uint(c)&1 == 0:
		if k == 1 {
			g.words[c*g.stride+l] = words[0]
		} else {
			copy(g.words[c*g.stride+l:], words)
		}
	case l+k > b.wpp:
		panic(budgetViolation(from, round, l+k, to, b.wpp))
	default:
		copy(b.inSlot(g, to, l+k, l+k), words)
	}
	newLen := int32(l + k)
	g.lens[c] = newLen
	b.act.mark(from, to)
	s := &b.sent[from]
	s.words += int64(k)
	if newLen > s.max {
		s.max = newLen
	}
}

// broadcast queues words on every outgoing link of from; a non-empty
// broadcast fills from's mask row word by word. A sender that has
// queued nothing yet in the round stores the words once, on the box's
// broadcast plane.
func (b *mailbox) broadcast(from, round int, words []uint64) {
	if len(words) == 0 || b.pl.broadcast(&b.act, &b.sent[from], from, round, b.wpp, words) {
		return
	}
	b.spill(from)
	k := len(words)
	b.act.markAll(from)
	maxLen := int32(0)
	for to := 0; to < b.n; to++ {
		if to == from {
			continue
		}
		g := b.carve(from, to)
		c := to & 63
		l := int(g.lens[c])
		if l+k > b.wpp {
			panic(budgetViolation(from, round, l+k, to, b.wpp))
		}
		if g.over>>uint(c)&1 != 0 {
			copy(b.inSlot(g, to, l+k, l+k), words)
		} else {
			if l+k > g.stride {
				b.grow(g, to, l+k)
			}
			copy(g.words[c*g.stride+l:], words)
		}
		g.lens[c] = int32(l + k)
		maxLen = max(maxLen, int32(l+k))
	}
	s := &b.sent[from]
	s.words += int64(b.n-1) * int64(k)
	if maxLen > s.max {
		s.max = maxLen
	}
}

// spill moves from's queued plane broadcast, if any, into its n−1
// grid cells, before from queues anything else in the round. The cells
// are empty: the plane is only taken by a sender that had queued
// nothing.
func (b *mailbox) spill(from int) {
	if len(b.pl.out[from]) != 0 {
		b.spillPlane(from)
	}
}

func (b *mailbox) spillPlane(from int) {
	words := b.pl.take(from)
	k := len(words)
	for to := 0; to < b.n; to++ {
		if to == from {
			continue
		}
		g := b.carve(from, to)
		c := to & 63
		if k > g.stride {
			b.grow(g, to, k)
		}
		copy(g.words[c*g.stride:c*g.stride+k], words)
		g.lens[c] = int32(k)
	}
}

// sendBuf reserves k words on the (from, to) link and returns the
// reserved storage for the caller to fill in place; k > 0 marks the
// pair like send. The cell's whole budget is reserved up front, so no
// later send this round can move it and the returned slice stays the
// mailbox's until the barrier: in the grid, widened to wpp, when the
// sender fills the group (see dense), and otherwise in the cell's slot.
func (b *mailbox) sendBuf(from, round, to, k int) []uint64 {
	b.spill(from)
	if k == 0 {
		return []uint64{}
	}
	g := &b.out[from*b.act.w+to>>6]
	if g.lens == nil {
		b.carveLens(g)
	}
	c := to & 63
	l := int(g.lens[c])
	if l+k > b.wpp {
		panic(budgetViolation(from, round, l+k, to, b.wpp))
	}
	var buf []uint64
	if g.over>>uint(c)&1 != 0 || g.stride < b.wpp && !b.dense(g, from, to) {
		buf = b.inSlot(g, to, l+k, b.wpp)
	} else {
		if g.stride < b.wpp {
			b.grow(g, to, b.wpp)
		}
		base := c*g.stride + l
		buf = g.words[base : base+k : base+k]
	}
	newLen := int32(l + k)
	g.lens[c] = newLen
	b.act.mark(from, to)
	s := &b.sent[from]
	s.words += int64(k)
	if newLen > s.max {
		s.max = newLen
	}
	return buf
}

// dense reports whether from's SendBuf traffic fills g, its group
// holding receiver to, so that g's grid should reserve the whole budget
// rather than each cell its own slot: g's twin in the delivered table or
// from's group before g already reserved it, or with to's cell half of
// g's cells are in slots this round.
func (b *mailbox) dense(g *group, from, to int) bool {
	i := from*b.act.w + to>>6
	if b.in[i].stride == b.wpp || to >= 64 && b.out[i-1].stride == b.wpp {
		return true
	}
	cols := min(64, b.n-to&^63)
	return 2*(bits.OnesCount64(g.over)+1) >= cols
}

// cell reads the (from, to) cell of one direction of the box, its
// group table and plane: the sender's plane cell if it broadcast on the
// plane, its group's cell otherwise, capacity-limited; nil if empty.
func (b *mailbox) cell(groups []group, plane [][]uint64, from, to int) []uint64 {
	if w, ok := planeCell(plane, from, to); ok {
		return w
	}
	g := &groups[from*b.act.w+to>>6]
	if g.lens == nil {
		return nil
	}
	c := to & 63
	l := int(g.lens[c])
	if l == 0 {
		return nil
	}
	if g.over>>uint(c)&1 != 0 {
		return g.slots.cells[bits.OnesCount64(g.slots.has&(1<<uint(c)-1))][:l:l]
	}
	base := c * g.stride
	return g.words[base : base+l : base+l]
}

// recv returns the words delivered from -> to last round, nil if none.
func (b *mailbox) recv(to, from int) []uint64 { return b.cell(b.in, b.pl.in, from, to) }

// outCell reads a queued (not yet delivered) cell; scheduler only.
func (b *mailbox) outCell(from, to int) []uint64 { return b.cell(b.out, b.pl.out, from, to) }

// senders appends the ids whose from -> to cell was non-empty last
// round to buf, ascending, reading the receiver-major activity mask:
// O(senders + n/64), not O(n).
func (b *mailbox) senders(to int, buf []int) []int { return b.act.senders(to, buf) }

// table returns the last round's shared broadcast table of n·k words
// when every sender broadcast exactly k words on the plane, nil
// otherwise (see plane.table).
func (b *mailbox) table(k int) []uint64 { return b.pl.table(k) }

// exchange delivers the queued round: swap the group tables and the
// planes, build the plane's shared table, rebuild the receiver-major
// activity mask from the sender-major one (a 64x64 tile transpose,
// O(n²/64) words), and retire the previous delivered round, clearing
// only the plane cells and the groups whose mask words say they were
// written. It returns the run's cumulative word count and per-pair
// high-water mark, tracked incrementally at send time so no per-cell
// statistics pass is needed. Scheduler only.
func (b *mailbox) exchange() (int64, int) {
	b.in, b.out = b.out, b.in
	b.act.deliver()
	b.pl.deliver()
	// The new out direction is last round's inbox. Words past a cell's
	// length are unreachable, so retiring it clears only lengths and
	// slot marks, and drops the slots of a grid that reserves the whole
	// budget: none of it for a plane broadcaster, whose groups were
	// never written.
	n, w := b.n, b.act.w
	for from := 0; from < n; from++ {
		row := b.act.out[from*w : from*w+w : from*w+w]
		groups := b.out[from*w : from*w+w : from*w+w]
		plane := b.pl.retire(from)
		for j, x := range row {
			if x != 0 {
				row[j] = 0
				if g := &groups[j]; !plane {
					*g.lens = [64]int32{}
					g.over = 0
					if g.stride == b.wpp {
						g.slots = nil // every cell fits the grid now
					}
				}
			}
		}
	}
	return foldSent(b.sent)
}

// reset returns the box to its just-allocated state, carved groups and
// slots kept, so a cached box can be reused by a fresh run (see
// pool.go).
func (b *mailbox) reset() {
	for _, groups := range [][]group{b.out, b.in} {
		for i := range groups {
			if g := &groups[i]; g.lens != nil {
				*g.lens = [64]int32{}
				g.over = 0
			}
		}
	}
	clear(b.sent)
	b.act.reset()
	b.pl.reset()
}

type lockstepEngine struct {
	cfg Config
	n   int

	round int
	box   *mailbox

	// Per-node coroutine controls. yield[v] is stored by node v's
	// coroutine on startup and invoked by Barrier to suspend it; next[v]
	// resumes it; stop[v] cancels it (a pending yield returns false).
	yield []func(struct{}) bool
	next  []func() (struct{}, bool)
	stop  []func()

	// live[v] is cleared by the worker that observes node v's program
	// return; vio[v] is set by node v's coroutine when it aborts with a
	// model violation. Workers touch disjoint shards, and the scheduler
	// reads both only between rounds.
	live []bool
	vio  []error

	stats       Stats
	transcripts []*Transcript

	// Tracing state, nil/zero when tr is nil. lastRound anchors round
	// wall time; pairsFn is built once so EndRound allocates nothing,
	// and pairBuf is its reused sender list.
	tr        trace.Tracer
	lastRound time.Time
	pairsFn   func(visit func(from, to, words int))
	pairBuf   []int
}

// newLockstepEngine allocates one run's node state. The mailbox and
// tracer are attached by the scheduler, which also owns their
// lifecycles.
func newLockstepEngine(cfg Config, n int) *lockstepEngine {
	e := &lockstepEngine{cfg: cfg, n: n}
	e.yield = make([]func(struct{}) bool, n)
	e.next = make([]func() (struct{}, bool), n)
	e.stop = make([]func(), n)
	e.live = make([]bool, n)
	e.vio = make([]error, n)
	if cfg.RecordTranscript {
		e.transcripts = make([]*Transcript, n)
		for v := range e.transcripts {
			e.transcripts[v] = &Transcript{NodeID: v}
		}
	}
	return e
}

// start wraps every node's body in a pull coroutine and marks it live.
func (e *lockstepEngine) start(body func(id int, rt NodeRuntime)) {
	for v := 0; v < e.n; v++ {
		e.next[v], e.stop[v] = iter.Pull(e.program(v, body))
		e.live[v] = true
	}
}

// stopAll unwinds every still-suspended coroutine so their goroutines
// are released; a pending yield returns false, raising Abort inside the
// node program.
func (e *lockstepEngine) stopAll() {
	for v := 0; v < e.n; v++ {
		e.stop[v]()
	}
}

// Run is a batch of one: the lockstep backend has a single scheduler,
// RunBatch's, and a serial run is its one-entry case.
func (b lockstepBackend) Run(cfg Config, body func(id int, rt NodeRuntime)) (*Result, error) {
	results, errs := b.RunBatch(cfg, 1, func(_, id int, rt NodeRuntime) { body(id, rt) })
	return results[0], errs[0]
}

// program wraps one node's body as a coroutine sequence. Yielding happens
// inside Barrier; a false yield result means the scheduler cancelled the
// run, which unwinds the body with Abort. Violations and stray panics are
// recorded for the scheduler instead of crashing the worker.
func (e *lockstepEngine) program(v int, body func(id int, rt NodeRuntime)) iter.Seq[struct{}] {
	return func(yield func(struct{}) bool) {
		e.yield[v] = yield
		defer func() {
			switch r := recover().(type) {
			case nil, Abort:
			case Violation:
				e.vio[v] = r.Err
			default:
				e.vio[v] = fmt.Errorf("clique: node %d panicked: %v", v, r)
			}
		}()
		body(v, e)
	}
}

// exchange delivers the round's messages and advances the clock. It runs
// on the scheduler goroutine while all node coroutines are suspended.
func (e *lockstepEngine) exchange() error {
	var exStart time.Time
	if e.tr != nil {
		exStart = time.Now()
	}
	var err error
	if e.cfg.BroadcastOnly {
		if from, to := findBroadcastViolation(e.n, e.box.outCell); from >= 0 {
			err = fmt.Errorf(
				"clique: node %d round %d: broadcast-only model violated (message to %d differs from the rest)",
				from, e.round, to)
		}
	}

	// The mailbox reports run-cumulative totals (tracked at send time);
	// assign rather than accumulate. Words queued by a round that never
	// exchanges are never folded in, matching the goroutine backend.
	words, maxPair := e.box.exchange()
	e.stats.WordsSent = words
	if maxPair > e.stats.MaxPairWords {
		e.stats.MaxPairWords = maxPair
	}

	if e.transcripts != nil {
		recordRound(e.transcripts, e.n, e.box.recv)
	}

	e.round++
	e.stats.Rounds = e.round
	if e.round > e.cfg.MaxRounds && err == nil {
		err = fmt.Errorf("clique: exceeded MaxRounds = %d", e.cfg.MaxRounds)
	}
	if e.tr != nil {
		// All node coroutines are suspended here, so the Pairs closure
		// reads the just-delivered inbox race-free. Wall covers the
		// resume step plus this exchange; BarrierWait is the exchange
		// alone — on this backend every node is held for exactly the
		// scheduler's delivery time.
		now := time.Now()
		e.tr.EndRound(trace.RoundEnd{
			Round:       e.round - 1,
			Wall:        now.Sub(e.lastRound),
			BarrierWait: now.Sub(exStart),
			Pairs:       e.pairsFn,
		})
		e.lastRound = now
	}
	return err
}

// visitPairs walks the just-delivered round in (to, from)-ascending
// order, visiting only the pairs the receiver-major activity mask marks.
func (e *lockstepEngine) visitPairs(visit func(from, to, words int)) {
	for to := 0; to < e.n; to++ {
		e.pairBuf = e.box.senders(to, e.pairBuf[:0])
		for _, from := range e.pairBuf {
			visit(from, to, len(e.box.recv(to, from)))
		}
	}
}

// Barrier suspends node id until the scheduler has exchanged the round.
func (e *lockstepEngine) Barrier(id int) {
	if !e.yield[id](struct{}{}) {
		panic(Abort{})
	}
}

func (e *lockstepEngine) Send(from, round, to int, words []uint64) {
	e.box.send(from, round, to, words)
}

func (e *lockstepEngine) Broadcast(from, round int, words []uint64) {
	e.box.broadcast(from, round, words)
}

// SendBuf hands out reserved mailbox storage: the returned slice is the
// link's cell in its group itself.
func (e *lockstepEngine) SendBuf(from, round, to, k int) []uint64 {
	return e.box.sendBuf(from, round, to, k)
}

func (e *lockstepEngine) Recv(to, from int) []uint64 {
	return e.box.recv(to, from)
}

func (e *lockstepEngine) Senders(to int, buf []int) []int {
	return e.box.senders(to, buf)
}

// BroadcastTable reads the shared table the mailbox built at the last
// exchange, on the scheduler goroutine while every node was suspended;
// nodes only read it, until their next Barrier.
func (e *lockstepEngine) BroadcastTable(k int) []uint64 {
	return e.box.table(k)
}

var _ NodeRuntime = (*lockstepEngine)(nil)
