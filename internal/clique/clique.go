package clique

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/trace"
)

// DefaultMaxRounds aborts runaway algorithms; any real congested clique
// algorithm in this repository terminates within O(n) rounds for the
// instance sizes we simulate.
const DefaultMaxRounds = engine.DefaultMaxRounds

// MaxN and MaxWordsPerPair bound a run's shape; see package engine.
const (
	MaxN            = engine.MaxN
	MaxWordsPerPair = engine.MaxWordsPerPair
)

// Config describes a simulated congested clique network.
type Config struct {
	// N is the number of nodes. Must be at least 1.
	N int

	// WordsPerPair is the per-round, per-ordered-pair message budget in
	// words. Zero means 1, the strict model. Larger values model a larger
	// constant inside the O(log n) bandwidth; the paper notes constants
	// can be moved between bandwidth and round count.
	WordsPerPair int

	// MaxRounds aborts the run after this many rounds. Zero means
	// DefaultMaxRounds.
	MaxRounds int

	// RecordTranscript enables per-node communication transcripts, the
	// objects Theorem 3 of the paper uses as nondeterministic
	// certificates. Recording costs memory proportional to the total
	// traffic, so it is off by default.
	RecordTranscript bool

	// BroadcastOnly switches to the *broadcast* congested clique of the
	// paper's related-work discussion: each round, every node must send
	// the same words to every other node (or nothing at all). The
	// engine verifies the restriction at each exchange; violating it
	// fails the run. Lower bounds are known for this weaker model
	// (Drucker et al. [19]).
	BroadcastOnly bool

	// Backend names the execution engine: "lockstep" (the default) or
	// "goroutine". Backends are model-equivalent; see package engine.
	Backend string

	// Tracer, if non-nil, receives the run's trace: the engine reports
	// every exchanged round to it, and — when it also implements
	// trace.SpanRecorder — node 0's phase and op spans are recorded
	// through it. Nil (the default) disables tracing entirely.
	Tracer trace.Tracer
}

func (c Config) withDefaults() Config {
	if c.WordsPerPair == 0 {
		c.WordsPerPair = 1
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = DefaultMaxRounds
	}
	return c
}

// Validate reports whether the configuration is usable. The model
// fields are checked by the engine config they translate to (one copy
// of the bounds and error strings); backend naming is checked here.
func (c Config) Validate() error {
	if err := c.engineConfig().Validate(); err != nil {
		return err
	}
	if _, err := engine.New(c.Backend); err != nil {
		return fmt.Errorf("clique: %w", err)
	}
	return nil
}

// engineConfig translates the model fields for package engine.
func (c Config) engineConfig() engine.Config {
	return engine.Config{
		N:                c.N,
		WordsPerPair:     c.WordsPerPair,
		MaxRounds:        c.MaxRounds,
		RecordTranscript: c.RecordTranscript,
		BroadcastOnly:    c.BroadcastOnly,
		Tracer:           c.Tracer,
	}
}

// WordBits returns the number of bits the model charges for one word on an
// n-node clique: ceil(log2 n), with a minimum of 1.
func WordBits(n int) int { return engine.WordBits(n) }

// NodeFunc is the algorithm run by every node. The same function runs at
// all nodes (the model is uniform); per-node behaviour comes from
// Node.ID() and from whatever input the surrounding closure captured.
type NodeFunc func(nd *Node)

// Stats aggregates the cost of a run in model terms; see engine.Stats.
type Stats = engine.Stats

// Transcript is the full communication record of a single node, the
// certificate object of Theorem 3; see engine.Transcript.
type Transcript = engine.Transcript

// TranscriptRound records one round of one node's communication.
type TranscriptRound = engine.TranscriptRound

// Result carries everything a completed run produced besides the
// algorithm's own outputs (which the caller collects via its NodeFunc
// closure).
type Result = engine.Result

// Run executes f at every node of an N-node congested clique and returns
// the aggregate cost of the execution. Outputs are collected by the
// caller's closure. Run returns an error if any node exceeded the message
// budget, panicked, or the round limit was hit. It is a batch of one:
// RunBatch(cfg, []NodeFunc{f}).
func Run(cfg Config, f NodeFunc) (*Result, error) {
	results, errs := RunBatch(cfg, []NodeFunc{f})
	return results[0], errs[0]
}

// Node is the per-node handle passed to a NodeFunc. All methods must be
// called only from within that node's program.
type Node struct {
	id  int
	n   int
	wpp int
	rt  engine.NodeRuntime
	// completed counts rounds this node has finished with Tick.
	completed int
	// bcast backs the buffer BroadcastBuf hands out, reused across
	// calls; pend is the length of its staged, not yet queued words
	// (0 = none).
	bcast []uint64
	pend  int
	// tr records phase/op spans; non-nil only at node 0 of a traced run.
	tr trace.SpanRecorder
	// rep is the run's shared table of Replicated results, nil where
	// the backend does not share; repCalls counts this node's calls of
	// each site in the current round.
	rep      *replicas
	repCalls []siteCalls
}

// ID returns this node's identifier in 0..N-1. The paper uses 1..n; the
// shift is immaterial and 0-based ids index Go slices directly.
func (nd *Node) ID() int { return nd.id }

// N returns the number of nodes in the clique.
func (nd *Node) N() int { return nd.n }

// Round returns the number of completed rounds, i.e. the index of the
// round currently being prepared.
func (nd *Node) Round() int { return nd.completed }

// WordsPerPair returns the per-round per-ordered-pair word budget.
func (nd *Node) WordsPerPair() int { return nd.wpp }

// Send queues words for delivery to node `to` at the end of the current
// round. It aborts the run if the budget for the (nd, to) pair would be
// exceeded or if `to` is out of range or equal to the sender: a node
// talking to itself needs no network.
func (nd *Node) Send(to int, words ...uint64) {
	nd.SendWords(to, words)
}

// SendWords is the batched form of Send: it queues an existing slice
// without the varargs indirection, so hot loops that reuse a staging
// buffer allocate nothing per call.
func (nd *Node) SendWords(to int, words []uint64) {
	if to < 0 || to >= nd.n || to == nd.id {
		panic(engine.Violation{Err: fmt.Errorf("clique: node %d: invalid Send target %d", nd.id, to)})
	}
	nd.flush()
	nd.rt.Send(nd.id, nd.completed, to, words)
}

// SendBuf reserves k words on the link to node `to` and returns the
// engine's mailbox storage for the caller to fill in place — the
// zero-copy send path. The budget is charged at reservation exactly as
// Send would charge it; the returned slice is writable until the next
// Tick and must be fully written.
func (nd *Node) SendBuf(to, k int) []uint64 {
	if to < 0 || to >= nd.n || to == nd.id {
		panic(engine.Violation{Err: fmt.Errorf("clique: node %d: invalid Send target %d", nd.id, to)})
	}
	if k < 0 {
		panic(engine.Violation{Err: fmt.Errorf("clique: node %d: negative SendBuf size %d", nd.id, k)})
	}
	nd.flush()
	return nd.rt.SendBuf(nd.id, nd.completed, to, k)
}

// Broadcast queues the same words for every other node. It consumes
// len(words) of the budget on each outgoing link.
func (nd *Node) Broadcast(words ...uint64) {
	nd.BroadcastWords(words)
}

// BroadcastWords is the batched form of Broadcast: it queues an
// existing slice on every outgoing link without the varargs
// indirection. The engine copies straight from the caller's slice into
// each link with no intermediate buffer.
func (nd *Node) BroadcastWords(words []uint64) {
	nd.flush()
	nd.rt.Broadcast(nd.id, nd.completed, words)
}

// BroadcastBuf returns a reusable k-word staging buffer to fill — the
// allocation-free broadcast path for callers that would otherwise
// build an argument slice per call. The filled words are queued by one
// Broadcast at the node's next send operation or Tick, or when its
// program returns, with exactly Broadcast's budget checks and ordering
// (later Sends of the same round queue after them). The buffer must be
// fully written before that point and is invalid after.
func (nd *Node) BroadcastBuf(k int) []uint64 {
	if k < 0 {
		panic(engine.Violation{Err: fmt.Errorf("clique: node %d: negative BroadcastBuf size %d", nd.id, k)})
	}
	nd.flush()
	if cap(nd.bcast) < k {
		nd.bcast = make([]uint64, k)
	}
	nd.pend = k
	return nd.bcast[:k]
}

// flush queues the words staged by the last BroadcastBuf, if any, as one
// Broadcast of the round they were staged in.
func (nd *Node) flush() {
	if k := nd.pend; k != 0 {
		nd.pend = 0
		nd.rt.Broadcast(nd.id, nd.completed, nd.bcast[:k])
	}
}

// Tick completes the current round: all queued messages across the whole
// network are exchanged, and Tick returns once every node has arrived at
// the barrier. After Tick, Recv reports the words received in the round
// that just completed.
func (nd *Node) Tick() {
	nd.flush()
	nd.rt.Barrier(nd.id)
	nd.completed++
}

// Recv returns the words received from node `from` in the most recently
// completed round, or nil if none. The returned slice is owned by the
// engine and must not be modified; it remains valid until the next Tick.
func (nd *Node) Recv(from int) []uint64 {
	if from < 0 || from >= nd.n || from == nd.id {
		panic(engine.Violation{Err: fmt.Errorf("clique: node %d: invalid Recv source %d", nd.id, from)})
	}
	if nd.completed == 0 {
		return nil
	}
	return nd.rt.Recv(nd.id, from)
}

// RecvInto appends the words received from node `from` in the most
// recently completed round to buf and returns the result. Unlike Recv,
// the returned memory is caller-owned and survives Tick, so multi-round
// collectives can accumulate streams into one reused buffer.
func (nd *Node) RecvInto(from int, buf []uint64) []uint64 {
	if from < 0 || from >= nd.n || from == nd.id {
		panic(engine.Violation{Err: fmt.Errorf("clique: node %d: invalid Recv source %d", nd.id, from)})
	}
	if nd.completed == 0 {
		return buf
	}
	return append(buf, nd.rt.Recv(nd.id, from)...)
}

// Senders appends to buf the ids of the nodes that sent this node a
// non-empty message in the most recently completed round, ascending,
// and returns the result — exactly {p : len(Recv(p)) > 0}. Before the
// first Tick it returns buf unchanged. On the lockstep backend the cost
// is O(senders + n/64), so sparse receives pay for the peers that
// spoke, not for n.
func (nd *Node) Senders(buf []int) []int {
	if nd.completed == 0 {
		return buf
	}
	return nd.rt.Senders(nd.id, buf)
}

// BroadcastTable returns the engine's shared table of the most
// recently completed round when every node broadcast exactly k > 0
// words in it and sent nothing else: n·k words, sender p's (this
// node's own included) at [p·k, (p+1)·k). It is nil for any other
// round, before the first Tick, and on the goroutine backend. The
// table is shared by every node of the run and valid until the next
// Tick: copy it, never write it. Collectives read it to fill their
// tables with one copy instead of n−1 Recv calls, and fall back to
// Recv when it is nil.
func (nd *Node) BroadcastTable(k int) []uint64 {
	if nd.completed == 0 {
		return nil
	}
	return nd.rt.BroadcastTable(k)
}

// Fail aborts the entire run with an algorithm-level error, e.g. when a
// node detects its input violates a documented precondition.
func (nd *Node) Fail(format string, args ...any) {
	panic(engine.Violation{Err: fmt.Errorf("clique: node %d: %s", nd.id, fmt.Sprintf(format, args...))})
}

// TracePhase opens a named algorithm phase span and returns its closer.
// On an untraced run (or any node but 0) it returns the shared no-op
// closure, so phase marks cost a nil check. Algorithms normally call
// this through trace.Phase, which degrades gracefully for Endpoint
// implementations without tracing support.
func (nd *Node) TracePhase(name string) func() {
	if nd.tr == nil {
		return trace.Nop
	}
	end := nd.tr.StartSpan(trace.KindPhase, name, nd.completed, 0)
	return func() { end(nd.completed) }
}

// TraceOp opens a collective-operation span carrying `words` payload
// words; see TracePhase. Collectives call this through trace.Op.
func (nd *Node) TraceOp(name string, words int) func() {
	if nd.tr == nil {
		return trace.Nop
	}
	end := nd.tr.StartSpan(trace.KindOp, name, nd.completed, int64(words))
	return func() { end(nd.completed) }
}

// Endpoint is the node-side API every congested clique algorithm is
// written against. The real engine's *Node implements it, and so does
// the virtual-clique simulator's node (package virtual); algorithms
// written against Endpoint therefore run unchanged inside a simulated
// clique, which is exactly the simulation argument of Theorem 10 of the
// paper.
type Endpoint interface {
	// ID returns this node's identifier in 0..N-1.
	ID() int
	// N returns the number of nodes in the clique.
	N() int
	// Round returns the number of completed rounds.
	Round() int
	// WordsPerPair returns the per-round per-ordered-pair word budget.
	WordsPerPair() int
	// Send queues words for delivery to node `to` this round.
	Send(to int, words ...uint64)
	// SendWords queues an existing slice for node `to` (batched Send).
	SendWords(to int, words []uint64)
	// SendBuf reserves k words on the link to `to` and returns the
	// mailbox storage to fill in place (zero-copy Send).
	SendBuf(to, k int) []uint64
	// Broadcast queues the same words for every other node.
	Broadcast(words ...uint64)
	// BroadcastWords queues an existing slice on every outgoing link
	// (batched Broadcast).
	BroadcastWords(words []uint64)
	// BroadcastBuf returns one staging buffer of k words to fill; the
	// words are broadcast at the next send operation or Tick, or when
	// the program returns.
	BroadcastBuf(k int) []uint64
	// Tick completes the current round.
	Tick()
	// Recv returns the words received from `from` in the last round.
	Recv(from int) []uint64
	// RecvInto appends the words received from `from` in the last round
	// to buf and returns caller-owned memory.
	RecvInto(from int, buf []uint64) []uint64
	// Senders appends the ids that sent a non-empty message in the last
	// round to buf, ascending, and returns the result.
	Senders(buf []int) []int
	// Fail aborts the run with an algorithm-level error.
	Fail(format string, args ...any)
}

var _ Endpoint = (*Node)(nil)

// Backends lists the available execution backend names.
func Backends() []string { return engine.Names() }

// DefaultBackend is the backend an empty Config.Backend selects.
const DefaultBackend = engine.DefaultBackend
