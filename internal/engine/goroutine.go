package engine

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/trace"
)

// goroutineBackend is the original execution engine: one goroutine per
// node, written in a blocking style, with a mutex/condition-variable
// barrier per round. It is the semantic reference implementation; the
// lockstep backend must match it bit for bit.
type goroutineBackend struct{}

func (goroutineBackend) Name() string { return "goroutine" }

// goroutineEngine is the shared state of one simulated network.
type goroutineEngine struct {
	cfg Config
	n   int

	mu      sync.Mutex
	cond    *sync.Cond
	arrived int
	active  int
	round   int
	err     error
	// errNode is the node whose failure e.err is, or -1 when the
	// exchange set it (MaxRounds, broadcast-only); only fail reads it.
	errNode int

	// outbox[from][to] and inbox[to][from] hold the words queued /
	// delivered in the current round.
	outbox [][][]uint64
	inbox  [][][]uint64

	stats       Stats
	transcripts []*Transcript

	// Tracing state, all nil/zero when tr is nil (the common case).
	// lastExchange anchors round wall time; firstArrive is stamped by
	// the round's first barrier arrival so barrier wait — how long the
	// fastest node waited for the stragglers — can be measured. pairsFn
	// is the Pairs closure, built once so EndRound allocates nothing.
	tr           trace.Tracer
	lastExchange time.Time
	firstArrive  time.Time
	pairsFn      func(visit func(from, to, words int))
}

func (goroutineBackend) Run(cfg Config, body func(id int, rt NodeRuntime)) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	n := cfg.N

	e := &goroutineEngine{cfg: cfg, n: n, active: n}
	if e.tr = effectiveTracer(cfg); e.tr != nil {
		e.lastExchange = time.Now()
		e.firstArrive = e.lastExchange
		e.pairsFn = e.visitPairs
	}
	e.cond = sync.NewCond(&e.mu)
	e.outbox = newMailbox(n)
	e.inbox = newMailbox(n)
	if cfg.RecordTranscript {
		e.transcripts = make([]*Transcript, n)
		for v := range e.transcripts {
			e.transcripts[v] = &Transcript{NodeID: v}
		}
	}

	var wg sync.WaitGroup
	wg.Add(n)
	for v := 0; v < n; v++ {
		go func() {
			defer wg.Done()
			defer e.leave()
			defer func() {
				r := recover()
				switch r := r.(type) {
				case nil:
				case Abort:
					// Another node failed; unwind quietly.
				case Violation:
					e.fail(v, r.Err)
				default:
					e.fail(v, fmt.Errorf("clique: node %d panicked: %v", v, r))
				}
			}()
			body(v, e)
		}()
	}
	wg.Wait()

	return finish(e.stats, e.transcripts, n), e.err
}

func newMailbox(n int) [][][]uint64 {
	m := make([][][]uint64, n)
	for i := range m {
		m[i] = make([][]uint64, n)
	}
	return m
}

// fail records node v's error and wakes all waiters. A failed node
// never reaches its barrier, so the round it fails in is never
// exchanged and every node failing later fails in the same round,
// after running all of that round's sends. Keeping the lowest-id
// node's error therefore gives the lockstep backend's canonical
// error, whichever goroutine fails first. An error the exchange set
// stays.
func (e *goroutineEngine) fail(v int, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err == nil || (e.errNode >= 0 && v < e.errNode) {
		e.err, e.errNode = err, v
	}
	e.cond.Broadcast()
}

// leave deregisters a node whose function has returned. If it was the
// last straggler of the current barrier, the round completes without it.
func (e *goroutineEngine) leave() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.active--
	if e.active > 0 && e.arrived == e.active && e.err == nil {
		e.exchangeLocked()
	}
}

// Barrier is called from Node.Tick. It blocks until all active nodes have
// arrived, at which point the last arrival performs the message exchange.
func (e *goroutineEngine) Barrier(id int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err != nil {
		panic(Abort{})
	}
	e.arrived++
	if e.tr != nil && e.arrived == 1 {
		e.firstArrive = time.Now()
	}
	if e.arrived == e.active {
		e.exchangeLocked()
		return
	}
	myRound := e.round
	for e.round == myRound && e.err == nil {
		e.cond.Wait()
	}
	// Unwind only if the run failed before this round was exchanged.
	// Once it was, the node goes on to the next round's sends even if a
	// faster node already failed there, so that round's every violator
	// reaches fail, as on the lockstep backend; the next Barrier aborts.
	if e.round == myRound {
		panic(Abort{})
	}
}

// exchangeLocked delivers all queued messages, updates statistics and
// transcripts, advances the round counter, and releases the barrier.
// Callers must hold e.mu.
func (e *goroutineEngine) exchangeLocked() {
	if e.cfg.BroadcastOnly && e.err == nil {
		if from, to := findBroadcastViolation(e.n, func(f, t int) []uint64 { return e.outbox[f][t] }); from >= 0 {
			e.err, e.errNode = fmt.Errorf(
				"clique: node %d round %d: broadcast-only model violated (message to %d differs from the rest)",
				from, e.round, to), -1
		}
	}
	e.inbox, e.outbox = e.outbox, e.inbox
	// inbox now holds what was sent: inbox[from][to]. Transpose view is
	// handled at Recv time by indexing inbox[from][to] with the reader
	// as `to`; to keep Recv O(1) we instead physically transpose here.
	// Transposing n^2 slice headers per round is cheap relative to the
	// simulated work.
	for from := 0; from < e.n; from++ {
		row := e.inbox[from]
		for to := from + 1; to < e.n; to++ {
			row[to], e.inbox[to][from] = e.inbox[to][from], row[to]
		}
	}
	// After the swap loop above, inbox[v][p] holds the words p sent to
	// v. Clear the outbox for the next round, keeping each cell's
	// storage: the cells are last round's inbox, whose Recv views
	// expired at this barrier, and recordRound copies what it records.
	for from := range e.outbox {
		row := e.outbox[from]
		for to := range row {
			row[to] = row[to][:0]
		}
	}

	maxPair := 0
	var words int64
	for v := 0; v < e.n; v++ {
		for p := 0; p < e.n; p++ {
			w := len(e.inbox[v][p])
			words += int64(w)
			if w > maxPair {
				maxPair = w
			}
		}
	}
	e.stats.WordsSent += words
	if maxPair > e.stats.MaxPairWords {
		e.stats.MaxPairWords = maxPair
	}

	if e.transcripts != nil {
		recordRound(e.transcripts, e.n, func(to, from int) []uint64 { return e.inbox[to][from] })
	}

	e.round++
	e.stats.Rounds = e.round
	if e.round > e.cfg.MaxRounds && e.err == nil {
		e.err, e.errNode = fmt.Errorf("clique: exceeded MaxRounds = %d", e.cfg.MaxRounds), -1
	}
	if e.tr != nil {
		// Reported under e.mu, before waking the barrier, so the inbox
		// the Pairs closure walks is the round just delivered.
		now := time.Now()
		e.tr.EndRound(trace.RoundEnd{
			Round:       e.round - 1,
			Wall:        now.Sub(e.lastExchange),
			BarrierWait: now.Sub(e.firstArrive),
			Pairs:       e.pairsFn,
		})
		e.lastExchange = now
		e.firstArrive = now
	}
	e.arrived = 0
	e.cond.Broadcast()
}

// visitPairs walks the just-delivered inbox: inbox[to][from] holds what
// `from` sent `to` this round (exchangeLocked transposed it).
func (e *goroutineEngine) visitPairs(visit func(from, to, words int)) {
	for to := 0; to < e.n; to++ {
		row := e.inbox[to]
		for from := 0; from < e.n; from++ {
			if w := len(row[from]); w != 0 {
				visit(from, to, w)
			}
		}
	}
}

// Send queues words for delivery; it runs on the sender's goroutine and
// touches only the sender's outbox row, so no lock is needed.
func (e *goroutineEngine) Send(from, round, to int, words []uint64) {
	box := e.outbox[from]
	if len(box[to])+len(words) > e.cfg.WordsPerPair {
		panic(budgetViolation(from, round, len(box[to])+len(words), to, e.cfg.WordsPerPair))
	}
	box[to] = append(box[to], words...)
}

// Broadcast queues the same words on every outgoing link, exactly as a
// loop of Sends would, including which target a budget violation names.
func (e *goroutineEngine) Broadcast(from, round int, words []uint64) {
	box := e.outbox[from]
	for to := 0; to < e.n; to++ {
		if to == from {
			continue
		}
		if len(box[to])+len(words) > e.cfg.WordsPerPair {
			panic(budgetViolation(from, round, len(box[to])+len(words), to, e.cfg.WordsPerPair))
		}
		box[to] = append(box[to], words...)
	}
}

// SendBuf reserves k words on the (from, to) link and returns the cell
// tail for the caller to fill: the zero-copy send path. The cell is
// grown to the full per-pair budget up front, so no later send this
// round can reallocate it — the returned slice stays aliased to the
// mailbox until the barrier, as the contract promises (and as the
// lockstep arena guarantees structurally).
func (e *goroutineEngine) SendBuf(from, round, to, k int) []uint64 {
	box := e.outbox[from]
	l := len(box[to])
	if l+k > e.cfg.WordsPerPair {
		panic(budgetViolation(from, round, l+k, to, e.cfg.WordsPerPair))
	}
	cell := box[to]
	if cap(cell) < e.cfg.WordsPerPair {
		cell = slices.Grow(cell, e.cfg.WordsPerPair-l)
	}
	cell = cell[:l+k]
	box[to] = cell
	return cell[l : l+k : l+k]
}

// Recv returns nil for a silent link and clips the view's capacity, as
// the lockstep mailbox does: cells are reused across rounds, so an
// append to a Recv view must copy rather than write into the cell.
func (e *goroutineEngine) Recv(to, from int) []uint64 {
	if w := e.inbox[to][from]; len(w) != 0 {
		return w[:len(w):len(w)]
	}
	return nil
}

// Senders scans the (already transposed) inbox row of `to`.
func (e *goroutineEngine) Senders(to int, buf []int) []int {
	for p, words := range e.inbox[to] {
		if len(words) != 0 {
			buf = append(buf, p)
		}
	}
	return buf
}

// BroadcastTable is always nil: the reference backend keeps no shared
// table, so every collective on it takes the per-node Recv path that
// the lockstep table is checked against.
func (e *goroutineEngine) BroadcastTable(int) []uint64 { return nil }

var _ NodeRuntime = (*goroutineEngine)(nil)
