package engine

import (
	"fmt"
	"iter"
	"math/bits"
	"slices"
	"time"

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
// Mailboxes are double-buffered flat tables indexed from-major
// (from*n+to) and reused across rounds, so the steady-state exchange
// path allocates nothing. The words are never transposed: delivery
// swaps the two tables and Recv computes the sender-major index. Beside
// the words, every box keeps an activity mask, one bit per ordered pair
// (see mask.go): senders set their own sender-major row as they queue,
// and exchange transposes it, 64x64 bits at a time, into a
// receiver-major mask, so Senders lists who spoke to a node in
// O(senders + n/64) and exchange resets only the rows or cells of the
// senders that spoke. A round in which s nodes send therefore costs the
// mailbox O(active pairs + n²/64), not O(n²). A broadcast is stored
// once: when its sender has queued nothing else yet in the round, its
// words go to the sender's cell of a write-once broadcast plane (see
// plane.go) instead of n−1 pair cells, and every receiver reads that
// one cell, so receivers of one broadcast share the same read-only
// slice. Any later send, sendBuf or broadcast from the sender in the
// same round first spills the plane into its n−1 cells, so word order,
// budget checks, violation text, Stats and transcripts are the cell
// path's. Storage is one of two layouts picked at Run time, each with
// its own plane:
//
//   - arenaBox: one word arena with a fixed wpp-word block per ordered
//     pair plus an int32 length table. Sends copy into the block;
//     retiring a round clears the length rows of its senders. This is
//     the fast path and covers every realistic budget.
//   - sliceBox: a [][]uint64 cell table whose cells keep their backing
//     arrays (length reset, capacity reused). Fallback when n^2 * wpp
//     is too large to preallocate densely.
type lockstepBackend struct{}

func (lockstepBackend) Name() string { return "lockstep" }

// arenaThresholdWords caps the dense arena at 128 MiB of words per
// direction; beyond that the sliceBox fallback allocates per link on
// first use instead.
const arenaThresholdWords = 1 << 24

// mailbox is the storage layer of the lockstep engine. All methods are
// called either from a single node's coroutine (send, broadcast, recv,
// senders — each touching only that node's rows, including its
// own row of the activity mask) or from the scheduler between rounds
// (exchange, outCell).
type mailbox interface {
	// send queues words on the (from, to) link, panicking with the
	// canonical budget Violation if the cell would overflow. A
	// non-empty send sets the pair's bit in the activity mask. Like
	// every queueing method, it first spills a plane broadcast of from
	// queued earlier in the round into from's cells.
	send(from, round, to int, words []uint64)
	// broadcast queues words on every outgoing link of `from`; a
	// non-empty broadcast fills from's mask row word by word. A sender
	// that has queued nothing yet in the round stores the words once,
	// on the box's broadcast plane.
	broadcast(from, round int, words []uint64)
	// sendBuf reserves k words on the (from, to) link and returns the
	// reserved storage for the caller to fill in place; k > 0 marks the
	// pair like send.
	sendBuf(from, round, to, k int) []uint64
	// recv returns the words delivered from -> to last round, nil if none.
	recv(to, from int) []uint64
	// senders appends the ids whose from -> to cell was non-empty last
	// round to buf, ascending, reading the receiver-major activity mask:
	// O(senders + n/64), not O(n).
	senders(to int, buf []int) []int
	// table returns the last round's shared broadcast table of n·k
	// words when every sender broadcast exactly k words on the plane,
	// nil otherwise (see plane.table).
	table(k int) []uint64
	// outCell reads a queued (not yet delivered) cell; scheduler only.
	outCell(from, to int) []uint64
	// exchange delivers the queued round: swap buffers and planes,
	// build the plane's shared table, rebuild the receiver-major
	// activity mask from the sender-major one (a 64x64 tile transpose,
	// O(n²/64) words), and reset only the plane cells and the length
	// rows (arenaBox) or cells (sliceBox) of the senders that spoke in
	// the retired round. It returns the run's cumulative word count and
	// per-pair high-water mark, tracked incrementally at send time so
	// no per-cell statistics pass is needed. Scheduler only.
	exchange() (cumWords int64, maxPair int)
	// reset returns the box to its just-allocated state so a pooled box
	// can be reused by a fresh run (see pool.go).
	reset()
}

// arenaBox stores each ordered pair's words in a fixed block of wpp
// words: arena[(from*n+to)*wpp:] with the used length in lens[from*n+to],
// and plane broadcasts in a preallocated n·wpp-word plane.
type arenaBox struct {
	n, wpp    int
	outW, inW []uint64
	outL, inL []int32
	sent      []senderStats
	act       activity
	pl        plane
}

// senderStats is the per-sender cumulative accounting, written only by
// the sender's own coroutine and folded by the scheduler at exchange.
type senderStats struct {
	words int64
	max   int32
}

func newArenaBox(n, wpp int) *arenaBox {
	return &arenaBox{
		n: n, wpp: wpp,
		outW: make([]uint64, n*n*wpp),
		inW:  make([]uint64, n*n*wpp),
		outL: make([]int32, n*n),
		inL:  make([]int32, n*n),
		sent: make([]senderStats, n),
		act:  newActivity(n, make([]uint64, 3*maskWords(n))),
		pl:   newPlane(n, wpp, make([][]uint64, 2*n), make([]uint64, planeWords(n, wpp))),
	}
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

func (b *arenaBox) send(from, round, to int, words []uint64) {
	b.spill(from)
	i := from*b.n + to
	l := int(b.outL[i])
	if l+len(words) > b.wpp {
		panic(budgetViolation(from, round, l+len(words), to, b.wpp))
	}
	if len(words) == 0 {
		return
	}
	if len(words) == 1 {
		b.outW[i*b.wpp+l] = words[0]
	} else {
		copy(b.outW[i*b.wpp+l:], words)
	}
	newLen := int32(l + len(words))
	b.outL[i] = newLen
	b.act.mark(from, to)
	s := &b.sent[from]
	s.words += int64(len(words))
	if newLen > s.max {
		s.max = newLen
	}
}

func (b *arenaBox) broadcast(from, round int, words []uint64) {
	if len(words) == 0 || b.pl.broadcast(&b.act, &b.sent[from], from, round, b.wpp, words) {
		return
	}
	b.spill(from)
	n, wpp := b.n, b.wpp
	base := from * n
	lens := b.outL[base : base+n : base+n]
	b.act.markAll(from)
	var queued int64
	maxLen := int32(0)
	for to := 0; to < n; to++ {
		if to == from {
			continue
		}
		l := int(lens[to])
		if l+len(words) > wpp {
			panic(budgetViolation(from, round, l+len(words), to, wpp))
		}
		copy(b.outW[(base+to)*wpp+l:], words)
		newLen := int32(l + len(words))
		lens[to] = newLen
		queued += int64(len(words))
		if newLen > maxLen {
			maxLen = newLen
		}
	}
	s := &b.sent[from]
	s.words += queued
	if maxLen > s.max {
		s.max = maxLen
	}
}

// spill moves from's queued plane broadcast into its n−1 cells, before
// from queues anything else in the round. The cells are empty: the
// plane is only taken by a sender that had queued nothing.
func (b *arenaBox) spill(from int) {
	words := b.pl.take(from)
	if words == nil {
		return
	}
	n, wpp, k := b.n, b.wpp, len(words)
	for to := 0; to < n; to++ {
		if to == from {
			continue
		}
		i := from*n + to
		copy(b.outW[i*wpp:i*wpp+k], words)
		b.outL[i] = int32(k)
	}
}

func (b *arenaBox) sendBuf(from, round, to, k int) []uint64 {
	b.spill(from)
	i := from*b.n + to
	l := int(b.outL[i])
	if l+k > b.wpp {
		panic(budgetViolation(from, round, l+k, to, b.wpp))
	}
	newLen := int32(l + k)
	b.outL[i] = newLen
	if k != 0 {
		b.act.mark(from, to)
	}
	s := &b.sent[from]
	s.words += int64(k)
	if newLen > s.max {
		s.max = newLen
	}
	base := i*b.wpp + l
	return b.outW[base : base+k : base+k]
}

func (b *arenaBox) recv(to, from int) []uint64 {
	if w, ok := b.pl.recv(to, from); ok {
		return w
	}
	i := from*b.n + to
	l := int(b.inL[i])
	if l == 0 {
		return nil
	}
	base := i * b.wpp
	return b.inW[base : base+l : base+l]
}

func (b *arenaBox) outCell(from, to int) []uint64 {
	if w, ok := b.pl.queued(from, to); ok {
		return w
	}
	i := from*b.n + to
	base, l := i*b.wpp, int(b.outL[i])
	return b.outW[base : base+l : base+l]
}

func (b *arenaBox) senders(to int, buf []int) []int { return b.act.senders(to, buf) }

func (b *arenaBox) table(k int) []uint64 { return b.pl.table(k) }

func (b *arenaBox) exchange() (int64, int) {
	b.inW, b.outW = b.outW, b.inW
	b.inL, b.outL = b.outL, b.inL
	b.act.deliver()
	b.pl.deliver()
	// The new out direction is last round's inbox; clearing the length
	// rows of the senders that spoke in it retires it, except for plane
	// broadcasters, whose rows were never written. The word arena needs
	// no clearing at all — stale words past a cell's length are
	// unreachable. A sender with a plane broadcast always spoke (n ≥ 2),
	// so every plane cell is retired here.
	n := b.n
	for from := 0; from < n; from++ {
		if b.act.retire(from) && !b.pl.retire(from) {
			clear(b.outL[from*n : from*n+n])
		}
	}
	return foldSent(b.sent)
}

func (b *arenaBox) reset() {
	// The word arenas need no clearing: words past a cell's recorded
	// length are unreachable, and lengths are zeroed here.
	clear(b.outL)
	clear(b.inL)
	clear(b.sent)
	b.act.reset()
	b.pl.reset()
}

// sliceBox is the dynamically-sized fallback: flat from-major cell
// tables whose cells are reset by length and keep their capacity, and
// a plane whose cells grow on first use the same way.
type sliceBox struct {
	n, wpp  int
	out, in [][]uint64
	sent    []senderStats
	act     activity
	pl      plane
}

func newSliceBox(n, wpp int) *sliceBox {
	return &sliceBox{
		n: n, wpp: wpp,
		out:  make([][]uint64, n*n),
		in:   make([][]uint64, n*n),
		sent: make([]senderStats, n),
		act:  newActivity(n, make([]uint64, 3*maskWords(n))),
		pl:   newPlane(n, wpp, make([][]uint64, 2*n), nil),
	}
}

func (b *sliceBox) send(from, round, to int, words []uint64) {
	b.spill(from)
	i := from*b.n + to
	cell := b.out[i]
	if len(cell)+len(words) > b.wpp {
		panic(budgetViolation(from, round, len(cell)+len(words), to, b.wpp))
	}
	if len(words) == 0 {
		return
	}
	b.out[i] = append(cell, words...)
	b.act.mark(from, to)
	s := &b.sent[from]
	s.words += int64(len(words))
	if newLen := int32(len(cell) + len(words)); newLen > s.max {
		s.max = newLen
	}
}

func (b *sliceBox) broadcast(from, round int, words []uint64) {
	if len(words) == 0 || b.pl.broadcast(&b.act, &b.sent[from], from, round, b.wpp, words) {
		return
	}
	b.spill(from)
	n := b.n
	row := b.out[from*n : from*n+n : from*n+n]
	b.act.markAll(from)
	var queued int64
	maxLen := int32(0)
	for to := 0; to < n; to++ {
		if to == from {
			continue
		}
		cell := row[to]
		if len(cell)+len(words) > b.wpp {
			panic(budgetViolation(from, round, len(cell)+len(words), to, b.wpp))
		}
		row[to] = append(cell, words...)
		queued += int64(len(words))
		if newLen := int32(len(cell) + len(words)); newLen > maxLen {
			maxLen = newLen
		}
	}
	s := &b.sent[from]
	s.words += queued
	if maxLen > s.max {
		s.max = maxLen
	}
}

// spill moves from's queued plane broadcast into its n−1 (empty) cells,
// like arenaBox.spill.
func (b *sliceBox) spill(from int) {
	words := b.pl.take(from)
	if words == nil {
		return
	}
	row := b.out[from*b.n : from*b.n+b.n]
	for to := range row {
		if to != from {
			row[to] = append(row[to], words...)
		}
	}
}

func (b *sliceBox) sendBuf(from, round, to, k int) []uint64 {
	b.spill(from)
	i := from*b.n + to
	cell := b.out[i]
	l := len(cell)
	if l+k > b.wpp {
		panic(budgetViolation(from, round, l+k, to, b.wpp))
	}
	// Grow to the full budget up front: later sends this round can then
	// never reallocate the cell, so the returned slice stays aliased to
	// the mailbox until the barrier (the arena layout's structural
	// guarantee, matched here).
	if cap(cell) < b.wpp {
		cell = slices.Grow(cell, b.wpp-l)
	}
	cell = cell[:l+k]
	b.out[i] = cell
	if k != 0 {
		b.act.mark(from, to)
	}
	s := &b.sent[from]
	s.words += int64(k)
	if newLen := int32(l + k); newLen > s.max {
		s.max = newLen
	}
	return cell[l : l+k : l+k]
}

func (b *sliceBox) recv(to, from int) []uint64 {
	if w, ok := b.pl.recv(to, from); ok {
		return w
	}
	if s := b.in[from*b.n+to]; len(s) != 0 {
		return s[:len(s):len(s)]
	}
	return nil
}

func (b *sliceBox) outCell(from, to int) []uint64 {
	if w, ok := b.pl.queued(from, to); ok {
		return w
	}
	return b.out[from*b.n+to]
}

func (b *sliceBox) senders(to int, buf []int) []int { return b.act.senders(to, buf) }

func (b *sliceBox) table(k int) []uint64 { return b.pl.table(k) }

func (b *sliceBox) exchange() (int64, int) {
	b.in, b.out = b.out, b.in
	b.act.deliver()
	b.pl.deliver()
	// Reset last round's inbox (the new outbox) by length only, visiting
	// just the cells its sender mask marks — none for a plane
	// broadcaster; the backing arrays stay and are appended into next
	// round.
	n, w := b.n, b.act.w
	for from := 0; from < n; from++ {
		row := b.act.out[from*w : from*w+w]
		if b.pl.retire(from) {
			clear(row)
			continue
		}
		for j, x := range row {
			if x == 0 {
				continue
			}
			row[j] = 0
			for ; x != 0; x &= x - 1 {
				i := from*n + (j<<6 | bits.TrailingZeros64(x))
				b.out[i] = b.out[i][:0]
			}
		}
	}
	return foldSent(b.sent)
}

func (b *sliceBox) reset() {
	// Cells keep their backing arrays (that is the point of reuse);
	// only lengths and accounting are cleared.
	for i, c := range b.out {
		if len(c) != 0 {
			b.out[i] = c[:0]
		}
	}
	for i, c := range b.in {
		if len(c) != 0 {
			b.in[i] = c[:0]
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
	box   mailbox

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

// SendBuf hands out reserved mailbox storage: on the arena layout the
// returned slice is the link's block in the word arena itself.
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
